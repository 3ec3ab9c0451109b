package perfbench

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions.col
import org.scalatest.funsuite.AnyFunSuite

import repro.core.{LakeIndex, SemanticIndex}
import repro.eval.{Harness, Method}
import repro.kb.KBDictionaries
import repro.lake.BenchmarkGen
import repro.lake.BenchmarkGen._

/** The benchmark must measure the program that ships: its composed paths
  * have to give exactly what `Harness.run(.., Method.SantosFull)` and
  * `SemanticIndex.build` give.
  */
class PathEquivalenceSpec extends AnyFunSuite {

  // The session the program's jobs use, as the benchmark does.
  private lazy val runner = jobs.JobSession.runner("perfbench-test")
  private lazy val world = runner.world
  private lazy val spark = { val _ = runner; SparkSession.active }

  /** Parks, the Birthplace trap (same value types, other relationship) and
    * an unrelated domain.
    */
  private lazy val bench = {
    val b = BenchmarkGen.generate(
      spark, world, "TRAP", k = 5,
      Seq(
        DomainSpec("parks", Some("park"), Seq(
          SubjectCol("park_name"), PropCol("supervisor", "ledby"),
          PropCol("city", "locatedin"), ChainCol("state", "locatedin", "locatedin")),
          nSubjects = 90, nPartitions = 7, kbCoverage = 0.9, isQuery = true),
        DomainSpec("birthplaces", Some("person"), Seq(
          SubjectCol("person_name"), PropCol("city", "bornin"),
          ChainCol("state", "bornin", "locatedin")),
          nSubjects = 90, nPartitions = 6, kbCoverage = 0.9, isQuery = false),
        DomainSpec("programs", None, Seq(
          SubjectCol("program_name"), LocalPropCol("department", 12),
          LocalPropCol("category", 6)),
          nSubjects = 90, nPartitions = 6, kbCoverage = 0.0, isQuery = true),
      ),
      queriesPerDomain = 2, seed = 21L)
    Harness.tuneSpark(spark)
    b.lakeCells.persist(); b.lakeCells.count()
    b.queryCells.persist(); b.queryCells.count()
    b
  }

  private lazy val intents = bench.queries.map(q => q.tableId -> q.intentCol).toMap
  private lazy val harnessRankings = Harness.run(spark, world, bench, Method.SantosFull).rankings

  private lazy val untraced = new Tracer(spark.sparkContext, enabled = false)
  private lazy val untracedIndex = Pipeline.buildIndex(spark, world, bench.lakeCells, untraced)

  test("the composed query path returns exactly Harness.run's SANTOS_Full rankings") {
    assert(harnessRankings.values.exists(_.nonEmpty))
    val composed = Pipeline.search(bench.queryCells, intents, untracedIndex, bench.k, untraced, "batch")
    assert(composed === harnessRankings)
  }

  test("a single-query search returns that query's batch ranking") {
    // One query of the KB-covered domain and one of the zero-coverage domain.
    val singles = bench.queries.filter(_.tableId.endsWith("__0"))
    assert(singles.size === 2)
    singles.foreach { q =>
      val cells = bench.queryCells.filter(col("table_id") === q.tableId)
      val single = Pipeline.search(cells, Map(q.tableId -> q.intentCol), untracedIndex, bench.k,
                                   untraced, q.tableId)
      assert(single === Map(q.tableId -> harnessRankings(q.tableId)), q.tableId)
    }
  }

  test("the index check passes the shipped index and catches a table missing from it") {
    assert(Main.indexProblem(untracedIndex, bench.nLakeTables) === None)
    val s = untracedIndex.synth.get
    val dropped = s.synCS.filter(col("table_id") =!= bench.queries.head.tableId)
    val broken = untracedIndex.copy(synth = Some(s.copy(synCS = dropped)))
    assert(Main.indexProblem(broken, bench.nLakeTables).exists(_.startsWith("synCS covers")))
  }

  test("the traced index has SemanticIndex.build's row count in every component") {
    def counts(idx: LakeIndex): Seq[Long] = {
      val s = idx.synth.get
      (idx.kbCS.toSeq ++ idx.kbRS.toSeq ++ idx.shared ++
        Seq(s.synCS, s.synRS, s.colVals, s.colSizes, s.fdPairVals, s.pairSizes)).map(_.count())
    }
    val kb = KBDictionaries.build(spark, world).materialize()
    val shipped = SemanticIndex.build(bench.lakeCells, Some(kb), useSynth = true).materialize()
    val tr = new Tracer(spark.sparkContext, enabled = true)
    val traced = Pipeline.tracedIndex(bench.lakeCells, kb, tr)
    try {
      assert(counts(traced) === counts(shipped))
      assert(counts(traced).forall(_ > 0))
    } finally {
      traced.unpersistAll()
      shipped.unpersistAll()
    }
  }

  test("the traced path returns the same rankings, and every span owns its call's Spark jobs") {
    val tr = new Tracer(spark.sparkContext, enabled = true)
    val index = Pipeline.buildIndex(spark, world, bench.lakeCells, tr)
    val ranked = try Pipeline.search(bench.queryCells, intents, index, bench.k, tr, "batch")
      finally index.unpersistAll()
    assert(ranked === harnessRankings)
    tr.drain()
    val byName = tr.recorded.groupBy(_.name)
    assert(byName.keySet === Main.spanNames.toSet)
    Main.spanNames.foreach { name =>
      val span = byName(name).head
      assert(tr.work(span).jobs > 0, name)
      assert(tr.selfMs(span) >= 0.0, name)
    }
    val parent = byName("core.SemanticIndex.build").head
    val children = tr.recorded.filter(_.parent.contains(parent.id))
    assert(children.map(_.name) === Main.indexComponentSpans)
    assert(tr.work(parent).jobs === children.map(tr.work(_).jobs).sum)
  }
}
