package repro.integration

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types.{DataType, DoubleType, IntegerType, StringType, StructField, StructType}

import repro.{Oracle, SparkSpec}
import repro.core._
import repro.kb.{KBDictionaries, World}
import repro.lake.BenchmarkGen.{Benchmark, QuerySpec}
import repro.lake.LakeSchema

/** The query phase served from the driver-side view of the lake index: its
  * annotations equal the Spark dataflow's row for row, and a warm
  * single-query search costs at most one Spark job.
  */
class ServingPathSpec extends SparkSpec {

  lazy val world = new World(42L)
  lazy val kb = KBDictionaries.build(spark, world).materialize()
  lazy val trapBench = prepared(MicroBenchmarks.trap(spark, world))
  lazy val zeroCovBench = prepared(MicroBenchmarks.zeroCoverage(spark, world))
  lazy val trapIndex = SemanticIndex.build(trapBench.lakeCells, Some(kb), useSynth = true)

  /** Caches the benchmark's cells, as Harness.run does. */
  private def prepared(b: Benchmark): Benchmark = {
    b.lakeCells.persist(); b.lakeCells.count()
    b.queryCells.persist(); b.queryCells.count()
    b
  }

  private def rows(df: DataFrame, cols: Seq[String]): Set[Row] =
    df.select(cols.map(col): _*).collect().toSet

  private val csCols = Seq("table_id", "col_id", "annotation", "top_level", "fs", "gs", "conf")
  private val rsCols = Seq("table_id", "col_a", "col_b", "predicate", "conf")

  /** The seed's overlap joins of the query with the lake, as SQL. */
  private val synCsSql =
    """WITH q AS (SELECT DISTINCT table_id, col_id, value FROM qcells),
      |     qs AS (SELECT table_id, col_id, COUNT(*) AS n_q FROM q GROUP BY table_id, col_id),
      |     ov AS (SELECT q.table_id, q.col_id, l.table_id AS lt, l.col_id AS lc, COUNT(*) AS n_ov
      |            FROM q JOIN lake l ON q.value = l.value
      |            GROUP BY q.table_id, q.col_id, l.table_id, l.col_id)
      |SELECT ov.table_id AS table_id, ov.col_id AS col_id, ov.lt || '#' || ov.lc AS annotation,
      |       CAST(ov.n_ov AS DOUBLE) / qs.n_q AS conf
      |FROM ov JOIN qs ON ov.table_id = qs.table_id AND ov.col_id = qs.col_id""".stripMargin

  private val synRsSql =
    """WITH p AS (SELECT DISTINCT a.table_id, a.col_id AS col_a, b.col_id AS col_b,
      |                  a.value AS value_a, b.value AS value_b
      |           FROM qcells a JOIN qcells b
      |             ON a.table_id = b.table_id AND a.row_id = b.row_id AND a.col_id <> b.col_id),
      |     ps AS (SELECT table_id, col_a, col_b, COUNT(*) AS n_q FROM p
      |            GROUP BY table_id, col_a, col_b),
      |     ov AS (SELECT p.table_id, p.col_a, p.col_b, l.table_id AS lt, l.col_a AS la,
      |                   l.col_b AS lb, COUNT(*) AS n_ov
      |            FROM p JOIN lake l ON p.value_a = l.value_a AND p.value_b = l.value_b
      |            GROUP BY p.table_id, p.col_a, p.col_b, l.table_id, l.col_a, l.col_b)
      |SELECT ov.table_id AS table_id, ov.col_a AS col_a, ov.col_b AS col_b,
      |       ov.lt || '#' || ov.la || '#' || ov.lb AS annotation,
      |       CAST(ov.n_ov AS DOUBLE) / ps.n_q AS conf
      |FROM ov JOIN ps
      |  ON ov.table_id = ps.table_id AND ov.col_a = ps.col_a AND ov.col_b = ps.col_b""".stripMargin

  /** Annotates every query of `bench` against `index` and checks each
    * annotation present against its reference. KB annotations are non-empty
    * iff the query domain is `kbCovered`.
    */
  private def checkAnnotations(bench: Benchmark, index: LakeIndex, kbCovered: Boolean): Unit = {
    val q = bench.queryCells
    val ann = QueryAnnotator.annotate(q, index)
    assert(ann.kbCS.isDefined === index.kb.isDefined)
    assert(ann.synCS.isDefined === index.synth.isDefined)
    index.kb.foreach { k =>
      val refCS = ColumnSemantics.compute(q, k, isQuery = true)
      val refRS = RelationshipSemantics.computeFromPairs(LakeSchema.valuePairs(q), k, refCS)
      val (cs, rs) = (rows(ann.kbCS.get, csCols), rows(ann.kbRS.get, rsCols))
      assert(cs === rows(refCS, csCols))
      assert(rs === rows(refRS, rsCols))
      assert(cs.nonEmpty === kbCovered && rs.nonEmpty === kbCovered)
    }
    index.synth.foreach { s =>
      val qcells = LakeSchema.stringCells(q).select("table_id", "col_id", "row_id", "value")
      assert(ann.synCS.get.count() > 0 && ann.synRS.get.count() > 0)
      Oracle.assertEquivalent(ann.synCS.get, synCsSql, "qcells" -> qcells, "lake" -> s.colVals)
      Oracle.assertEquivalent(ann.synRS.get, synRsSql, "qcells" -> qcells, "lake" -> s.fdPairVals)
    }
  }

  private def withIndex(bench: Benchmark, useKb: Boolean, useSynth: Boolean)(body: LakeIndex => Unit): Unit = {
    val index = SemanticIndex.build(bench.lakeCells, if (useKb) Some(kb) else None, useSynth)
    try body(index) finally index.unpersistAll()
  }

  test("TRAP, SANTOS_Full: driver annotations equal the Spark dataflow's") {
    checkAnnotations(trapBench, trapIndex, kbCovered = true)
  }

  test("TRAP, SANTOS_KB: driver annotations equal the Spark dataflow's") {
    withIndex(trapBench, useKb = true, useSynth = false)(checkAnnotations(trapBench, _, kbCovered = true))
  }

  test("ZEROCOV, SANTOS_Full: driver annotations equal the Spark dataflow's") {
    withIndex(zeroCovBench, useKb = true, useSynth = true)(checkAnnotations(zeroCovBench, _, kbCovered = false))
  }

  test("ZEROCOV, SANTOS_Synth: driver annotations equal the Spark dataflow's") {
    withIndex(zeroCovBench, useKb = false, useSynth = true)(checkAnnotations(zeroCovBench, _, kbCovered = false))
  }

  /** A schema of (name, type) fields: strings nullable, numbers not. */
  private def schemaOf(fields: (String, DataType)*): StructType =
    StructType(fields.map { case (n, t) => StructField(n, t, nullable = t == StringType) })

  private def pairSchema(annCol: String) = schemaOf("table_id" -> StringType,
    "col_a" -> IntegerType, "col_b" -> IntegerType, annCol -> StringType, "conf" -> DoubleType)

  /** Checks that `frame` has `schema` and holds exactly `expected`. */
  private def checkFrame(frame: Option[DataFrame], schema: StructType, expected: Option[Seq[Row]]): Unit = {
    assert(frame.isDefined === expected.isDefined)
    for (df <- frame; rows <- expected) {
      assert(df.schema === schema)
      assert(df.collect().toSeq.sortBy(_.toString) === rows.sortBy(_.toString))
    }
  }

  for ((name, bench) <- Seq("TRAP" -> (() => trapBench), "ZEROCOV" -> (() => zeroCovBench)))
    test(s"$name: the annotation frames have the annotation's schema and exactly its rows") {
      withIndex(bench(), useKb = true, useSynth = true) { index =>
        val ann = QueryAnnotator.annotate(bench().queryCells, index)
        assert(ann.kbColumns.exists(_.nonEmpty) === (name == "TRAP"))
        assert(ann.synColumns.exists(_.nonEmpty) && ann.synPairs.exists(_.nonEmpty))
        checkFrame(ann.kbCS, schemaOf("table_id" -> StringType, "col_id" -> IntegerType,
          "annotation" -> StringType, "top_level" -> StringType, "fs" -> DoubleType,
          "gs" -> DoubleType, "conf" -> DoubleType),
          ann.kbColumns.map(_.map { case (t, r) => Row(t, r.col, r.annotation, r.topLevel, r.fs, r.gs, r.conf) }))
        checkFrame(ann.kbRS, pairSchema("predicate"),
          ann.kbPairs.map(_.map(r => Row(r.table, r.a, r.b, r.annotation, r.conf))))
        checkFrame(ann.synCS, schemaOf("table_id" -> StringType, "col_id" -> IntegerType,
          "annotation" -> StringType, "conf" -> DoubleType),
          ann.synColumns.map(_.map(r => Row(r.table, r.col, r.annotation, r.conf))))
        checkFrame(ann.synRS, pairSchema("annotation"),
          ann.synPairs.map(_.map(r => Row(r.table, r.a, r.b, r.annotation, r.conf))))
      }
    }

  test("a warm single-query search runs at most one Spark job") {
    // With `persistAnnotations` the caller builds and caches the annotation
    // DataFrames first, as perfbench does; scoring must then still not read
    // them back through Spark.
    def search(q: QuerySpec, persistAnnotations: Boolean) = {
      val cells = trapBench.queryCells.filter(col("table_id") === q.tableId)
      val ann = QueryAnnotator.annotate(cells, trapIndex)
      val dfs = Seq(ann.kbCS, ann.kbRS, ann.synCS, ann.synRS).flatten
      if (persistAnnotations) dfs.foreach(_.persist())
      try {
        val trees = QueryAnnotator.queryTrees(ann, Map(q.tableId -> q.intentCol))
        UnionSearch.searchAll(trees, Scoring.edgeScores(ann, trapIndex), trapBench.k)
      } finally if (persistAnnotations) dfs.foreach(_.unpersist())
    }
    val Seq(first, second) = trapBench.queries.take(2)
    search(first, persistAnnotations = false) // warms the serving view

    for (persist <- Seq(false, true)) {
      val (ranked, jobs) = SparkJobs.count(spark.sparkContext)(search(second, persist))
      assert(ranked(second.tableId).nonEmpty)
      assert(jobs <= 1, s"$jobs Spark jobs for one warm query (persisted: $persist)")
    }
  }
}
