package repro.integration

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.expressions.{InitCap, Lower, Upper}
import org.apache.spark.sql.functions.col

import repro.{Oracle, SparkSpec}
import repro.core._
import repro.kb.{KBDictionaries, KBIndex, World}
import repro.lake.BenchmarkGen.Benchmark
import repro.lake.LakeSchema

/** The per-table index build against the lake-wide join formulation it
  * replaced, written out as DuckDB SQL: every index member, for every
  * SANTOS variant, on the micro benchmarks. Plus guards on the build: its
  * Spark job count, and no Spark case mapping in its plans (the lake's cells
  * are lower-cased by `LakeSchema.normalizeValue`, as the query's are).
  */
class IndexBuildSpec extends SparkSpec {

  lazy val world = new World(42L)
  lazy val kb = KBDictionaries.build(spark, world).materialize()
  lazy val trapBench = prepared(MicroBenchmarks.trap(spark, world))
  lazy val zeroCovBench = prepared(MicroBenchmarks.zeroCoverage(spark, world))

  /** Caches the benchmark's cells, as Harness.run does. */
  private def prepared(b: Benchmark): Benchmark = {
    b.lakeCells.persist(); b.lakeCells.count()
    b
  }

  // ------------------------------------------------ the join formulation, as SQL

  /** Normalized string cells, distinct column values and distinct value pairs
    * (`LakeSchema.stringCells`, `distinctColumnValues`, `valuePairs`).
    */
  private val lakeCtes =
    """sc AS (
      |  SELECT table_id, col_id, row_id, lower(trim(value)) AS value FROM cells
      |  WHERE is_string = 'true' AND value IS NOT NULL
      |    AND lower(trim(value)) NOT IN ('', 'null', 'nan', 'none', 'n/a', '-')
      |), cv AS (
      |  SELECT DISTINCT table_id, col_id, value FROM sc
      |), sizes AS (
      |  SELECT table_id, col_id, COUNT(*) AS n_distinct FROM cv GROUP BY table_id, col_id
      |), pairs AS (
      |  SELECT DISTINCT a.table_id, a.col_id AS col_a, b.col_id AS col_b,
      |         a.value AS value_a, b.value AS value_b
      |  FROM sc a JOIN sc b
      |    ON a.table_id = b.table_id AND a.row_id = b.row_id AND a.col_id <> b.col_id
      |)""".stripMargin

  /** Eq. 1–3 for lake columns: majority top level by (values desc, entity
    * count asc nulls first, name asc), then fs = n_a / n_kb, conf = fs·gs.
    */
  private val kbCsCtes =
    """nkb AS (
      |  SELECT table_id, col_id, COUNT(*) AS n_kb FROM cv
      |  WHERE value IN (SELECT label FROM covered) GROUP BY table_id, col_id
      |), mapped AS (
      |  SELECT DISTINCT cv.table_id, cv.col_id, cv.value, t.type_id, t.top_level,
      |         CAST(t.gs AS DOUBLE) AS gs
      |  FROM cv JOIN typedict t ON t.label = cv.value
      |), tops AS (
      |  SELECT m.table_id, m.col_id, m.top_level, COUNT(DISTINCT m.value) AS n_top,
      |         ANY_VALUE(CAST(p.top_pop AS BIGINT)) AS top_pop
      |  FROM mapped m LEFT JOIN toppop p ON p.top_level = m.top_level
      |  GROUP BY m.table_id, m.col_id, m.top_level
      |), majority AS (
      |  SELECT table_id, col_id, top_level FROM (
      |    SELECT *, row_number() OVER (PARTITION BY table_id, col_id
      |      ORDER BY n_top DESC, top_pop ASC NULLS FIRST, top_level ASC) AS rk
      |    FROM tops) WHERE rk = 1
      |), kbcs AS (
      |  SELECT m.table_id, m.col_id, m.type_id AS annotation, m.top_level,
      |         CAST(COUNT(*) AS DOUBLE) / ANY_VALUE(n.n_kb) AS fs, m.gs,
      |         CAST(COUNT(*) AS DOUBLE) / ANY_VALUE(n.n_kb) * m.gs AS conf
      |  FROM mapped m
      |  JOIN majority j ON j.table_id = m.table_id AND j.col_id = m.col_id
      |                 AND j.top_level = m.top_level
      |  JOIN nkb n ON n.table_id = m.table_id AND n.col_id = m.col_id
      |  GROUP BY m.table_id, m.col_id, m.type_id, m.top_level, m.gs
      |)""".stripMargin

  private val kbCsSql = s"WITH $lakeCtes, $kbCsCtes SELECT * FROM kbcs"

  /** Eq. 4 over pairs of columns with CS, best predicate by (conf desc,
    * pred_pairs asc, predicate asc).
    */
  private val kbRsSql =
    s"""WITH $lakeCtes, $kbCsCtes, cs_cols AS (
       |  SELECT DISTINCT table_id, col_id FROM kbcs
       |), pkb AS (
       |  SELECT p.* FROM pairs p
       |  JOIN cs_cols ca ON ca.table_id = p.table_id AND ca.col_id = p.col_a
       |  JOIN cs_cols cb ON cb.table_id = p.table_id AND cb.col_id = p.col_b
       |  WHERE p.value_a IN (SELECT label FROM covered) AND p.value_b IN (SELECT label FROM covered)
       |), den AS (
       |  SELECT table_id, col_a, col_b, COUNT(*) AS n_kb FROM pkb GROUP BY table_id, col_a, col_b
       |), withp AS (
       |  SELECT DISTINCT p.table_id, p.col_a, p.col_b, p.value_a, p.value_b, r.predicate,
       |         CAST(r.pred_pairs AS BIGINT) AS pred_pairs
       |  FROM pkb p JOIN reldict r ON r.label_subj = p.value_a AND r.label_obj = p.value_b
       |), scored AS (
       |  SELECT w.table_id, w.col_a, w.col_b, w.predicate, w.pred_pairs,
       |         CAST(COUNT(*) AS DOUBLE) / ANY_VALUE(d.n_kb) AS conf
       |  FROM withp w JOIN den d
       |    ON d.table_id = w.table_id AND d.col_a = w.col_a AND d.col_b = w.col_b
       |  GROUP BY w.table_id, w.col_a, w.col_b, w.predicate, w.pred_pairs
       |)
       |SELECT table_id, col_a, col_b, predicate, conf FROM (
       |  SELECT *, row_number() OVER (PARTITION BY table_id, col_a, col_b
       |    ORDER BY conf DESC, pred_pairs ASC, predicate ASC) AS rk
       |  FROM scored) WHERE rk = 1""".stripMargin

  /** Eq. 5: self rows for every column, cross rows over values spread over at
    * most `maxSpread` columns, normalized by the inheriting column's size.
    */
  private def synCsSql(maxSpread: Int) =
    s"""WITH $lakeCtes, cvs AS (
       |  SELECT * FROM cv WHERE value IN (
       |    SELECT value FROM cv GROUP BY value HAVING COUNT(*) <= $maxSpread)
       |)
       |SELECT table_id, col_id, table_id || '#' || col_id AS annotation, 1.0 AS conf FROM sizes
       |UNION ALL
       |SELECT a.table_id, a.col_id, b.table_id || '#' || b.col_id AS annotation,
       |       CAST(COUNT(*) AS DOUBLE) / ANY_VALUE(s.n_distinct) AS conf
       |FROM cvs a JOIN cvs b
       |  ON a.value = b.value AND (a.table_id <> b.table_id OR a.col_id <> b.col_id)
       |JOIN sizes s ON s.table_id = a.table_id AND s.col_id = a.col_id
       |GROUP BY a.table_id, a.col_id, b.table_id, b.col_id""".stripMargin

  /** Unary FDs, both orientations of each, their value pairs (`fdvals`), the
    * Eq. 6 denominators (`psizes`) and, with a KB, the value pairs its
    * relationship dictionary does not hold (`kept`).
    */
  private def fdCtes(exclude: Boolean) =
    s"""$lakeCtes, per_det AS (
       |  SELECT table_id, col_a, col_b, value_a, COUNT(DISTINCT value_b) AS n
       |  FROM pairs GROUP BY table_id, col_a, col_b, value_a
       |), fds AS (
       |  SELECT table_id, col_a, col_b FROM per_det
       |  GROUP BY table_id, col_a, col_b HAVING MAX(n) = 1
       |), mp AS (
       |  SELECT table_id, col_a, col_b FROM fds UNION SELECT table_id, col_b, col_a FROM fds
       |), fdvals AS (
       |  SELECT p.* FROM pairs p
       |  JOIN mp ON mp.table_id = p.table_id AND mp.col_a = p.col_a AND mp.col_b = p.col_b
       |), psizes AS (
       |  SELECT table_id, col_a, col_b, COUNT(*) AS n_pairs FROM fdvals
       |  GROUP BY table_id, col_a, col_b
       |), kept AS (
       |  SELECT * FROM fdvals f ${if (exclude) "WHERE NOT EXISTS (SELECT 1 FROM reldict r " +
         "WHERE r.label_subj = f.value_a AND r.label_obj = f.value_b)" else ""}
       |)""".stripMargin

  /** Eq. 6: self rows for FD pairs keeping a value pair, cross rows over
    * shared stored value pairs, normalized by the pre-exclusion pair size.
    */
  private def synRsSql(exclude: Boolean) =
    s"""WITH ${fdCtes(exclude)}
       |SELECT DISTINCT table_id, col_a, col_b,
       |       table_id || '#' || col_a || '#' || col_b AS annotation, 1.0 AS conf FROM kept
       |UNION ALL
       |SELECT a.table_id, a.col_a, a.col_b,
       |       b.table_id || '#' || b.col_a || '#' || b.col_b AS annotation,
       |       CAST(COUNT(*) AS DOUBLE) / ANY_VALUE(s.n_pairs) AS conf
       |FROM kept a JOIN kept b
       |  ON a.value_a = b.value_a AND a.value_b = b.value_b
       | AND (a.table_id <> b.table_id OR a.col_a <> b.col_a OR a.col_b <> b.col_b)
       |JOIN psizes s ON s.table_id = a.table_id AND s.col_a = a.col_a AND s.col_b = a.col_b
       |GROUP BY a.table_id, a.col_a, a.col_b, b.table_id, b.col_a, b.col_b""".stripMargin

  // ----------------------------------------------------------------- checks

  /** The KB dictionaries restricted to labels occurring in `cells`: the SQL
    * only ever joins them on lake values, so the rest cannot change a result.
    * The rows are filtered on the driver, so no Spark task carries the whole
    * dictionaries.
    */
  private def kbTables(cells: DataFrame, k: KBIndex): Seq[(String, DataFrame)] = {
    import spark.implicits._
    val values = LakeSchema.stringCells(cells).select("value").distinct().as[String].collect().toSet
    Seq(
      "typedict" -> k.typeRows.filter(r => values(r._1)).toDF("label", "type_id", "top_level", "gs"),
      "covered" -> k.labelRows.map(_._1).distinct.filter(values).toDF("label"),
      "reldict" -> k.relRows.filter(r => values(r._1) && values(r._2))
        .toDF("label_subj", "label_obj", "predicate", "pred_pairs"),
      "toppop" -> k.topLevelCounts.toSeq.toDF("top_level", "top_pop"))
  }

  /** Builds the index of `bench` for one SANTOS variant and checks every
    * member it has against its SQL.
    */
  private def checkVariant(bench: Benchmark, useKb: Boolean, useSynth: Boolean): Unit = {
    val cells = bench.lakeCells
    val k = if (useKb) Some(kb) else None
    val index = SemanticIndex.build(cells, k, useSynth)
    try {
      assert(index.kbCS.isDefined === useKb && index.synth.isDefined === useSynth)
      val tables = ("cells" -> cells) +: k.toSeq.flatMap(kbTables(cells, _))
      def check(member: DataFrame, sql: String): Unit = {
        assert(member.count() > 0)
        Oracle.assertEquivalent(member, sql, tables: _*)
      }
      index.kbCS.foreach(check(_, kbCsSql))
      index.kbRS.foreach(check(_, kbRsSql))
      index.synth.foreach { s =>
        check(s.synCS, synCsSql(SynthesizedKB.defaultMaxValueSpread))
        check(s.synRS, synRsSql(exclude = useKb))
        check(s.colVals, s"WITH $lakeCtes SELECT * FROM cv")
        check(s.colSizes, s"WITH $lakeCtes SELECT * FROM sizes")
        check(s.fdPairVals, s"WITH ${fdCtes(exclude = useKb)} SELECT * FROM kept")
        check(s.pairSizes, s"WITH ${fdCtes(exclude = useKb)} SELECT * FROM psizes")
      }
    } finally index.unpersistAll()
  }

  for ((name, bench) <- Seq("TRAP" -> (() => trapBench), "ZEROCOV" -> (() => zeroCovBench));
       (variant, useKb, useSynth) <- Seq(("SANTOS_Full", true, true), ("SANTOS_KB", true, false),
                                         ("SANTOS_Synth", false, true))) {
    test(s"$name, $variant: every index member equals the join formulation") {
      checkVariant(bench(), useKb, useSynth)
    }
  }

  test("TRAP: values spread wider than maxValueSpread leave the overlap, not the sizes") {
    val cells = trapBench.lakeCells
    val maxSpread = 2
    val wide = LakeSchema.distinctColumnValues(cells).groupBy("value").count()
      .filter(col("count") > maxSpread).count()
    assert(wide > 0)
    val s = SynthesizedKB.build(cells, maxValueSpread = maxSpread)
    try {
      Oracle.assertEquivalent(s.synCS, synCsSql(maxSpread), "cells" -> cells)
      Oracle.assertEquivalent(s.colSizes, s"WITH $lakeCtes SELECT * FROM sizes", "cells" -> cells)
    } finally s.unpersistAll()
  }

  test("TRAP: the KB dictionaries and the SANTOS_Full index build in at most 40 Spark jobs") {
    val cells = trapBench.lakeCells
    val (index, jobs) = SparkJobs.count(spark.sparkContext) {
      val k = KBDictionaries.build(spark, world).materialize()
      SemanticIndex.build(cells, Some(k), useSynth = true)
    }
    try assert(jobs <= 40, s"$jobs Spark jobs for one build")
    finally index.unpersistAll()
  }

  test("TRAP: no Spark case mapping in the plans of stringCells or the SANTOS_Full index members") {
    val cells = trapBench.lakeCells
    val index = SemanticIndex.build(cells, Some(kb), useSynth = true)
    try {
      val members = index.kbCS.toSeq ++ index.kbRS.toSeq ++ index.synth.toSeq.flatMap(_.members)
      assert(members.size === 8)
      for ((df, i) <- (LakeSchema.stringCells(cells) +: members).zipWithIndex;
           plan <- Seq(df.queryExecution.analyzed, df.queryExecution.optimizedPlan)) {
        val mapped = plan.collectWithSubqueries { case p => p.expressions }.flatten
          .flatMap(_.collect { case e @ (_: Lower | _: Upper | _: InitCap) => e })
        assert(mapped.isEmpty, s"plan $i maps case with Spark: ${mapped.mkString(", ")}")
      }
    } finally index.unpersistAll()
  }

  test("an index with neither method is rejected at build time, with the reason") {
    val e = intercept[IllegalArgumentException] {
      SemanticIndex.build(trapBench.lakeCells, kb = None, useSynth = false)
    }
    assert(e.getMessage.contains("at least one method"))
  }
}
