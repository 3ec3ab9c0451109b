package repro.eval

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col

import repro.baselines.{D3L, Turl}
import repro.core._
import repro.core.UnionSearch.Ranked
import repro.kb.{KBConfig, KBDictionaries, KBIndex, World}
import repro.lake.BenchmarkGen.Benchmark

/** A union-search method under evaluation (Sec. 8). */
sealed trait Method { def label: String }
object Method {
  /** SANTOS with both the existing and the synthesized KB (Eq. 10). */
  case object SantosFull extends Method { val label = "SANTOS_Full" }
  /** Existing KB only (Sec. 8.3 ablation). */
  case object SantosKB extends Method { val label = "SANTOS_KB" }
  /** Synthesized KB only (Sec. 8.3 ablation). */
  case object SantosSynth extends Method { val label = "SANTOS_Synth" }
  /** Column semantics only, no relationships (Sec. 8.2). */
  case object SantosCol extends Method { val label = "SANTOS_Col" }
  /** Column-unionability baseline [3]. */
  case object D3LBaseline extends Method { val label = "D3L" }
  /** Degraded pre-trained annotator baseline [8]. */
  case object TurlBaseline extends Method { val label = "TURL" }
}

/** Per-query effectiveness at the benchmark's k. */
final case class QueryMetrics(query: String, p: Double, r: Double, map: Double)

/** One (benchmark, method) evaluation run. */
final case class RunResult(
    benchmark: String,
    method: Method,
    k: Int,
    indexMillis: Long,
    rankings: Map[String, Seq[Ranked]],
    groundTruth: Map[String, Set[String]],
    queryTimesMillis: Seq[Double]) {

  def metricsAt(k2: Int): Seq[QueryMetrics] =
    rankings.toSeq.sortBy(_._1).map { case (q, ranked) =>
      val ids = ranked.map(_.tableId)
      val rel = groundTruth(q)
      QueryMetrics(q,
        Metrics.precisionAtK(ids, rel, k2),
        Metrics.recallAtK(ids, rel, k2),
        Metrics.mapAtK(ids, rel, k2))
    }

  def avgP(k2: Int): Double = Metrics.mean(metricsAt(k2).map(_.p))
  def avgR(k2: Int): Double = Metrics.mean(metricsAt(k2).map(_.r))
  def avgMap(k2: Int): Double = Metrics.mean(metricsAt(k2).map(_.map))
  def avgP: Double = avgP(k)
  def avgR: Double = avgR(k)
  def avgMap: Double = avgMap(k)

  def avgQueryMillis: Double = Metrics.mean(queryTimesMillis)
  def p10QueryMillis: Double = Metrics.percentile(queryTimesMillis, 0.1)
  def p90QueryMillis: Double = Metrics.percentile(queryTimesMillis, 0.9)
}

/** Runs a method over a benchmark, timing the indexing (pre-processing) phase
  * and a per-query sample of the query phase (Fig. 10).
  */
object Harness {

  /** Runs `body`, returning its result and wall time in fractional ms. */
  private def timed[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = body
    (a, (System.nanoTime() - t0) / 1e6)
  }

  /** The one SparkSession setup: local mode (or `SPARK_MASTER`), broadcast
    * joins and the UI off, tuned by [[tuneSpark]] once, at creation.
    */
  def session(appName: String): SparkSession = {
    val spark = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(appName)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", false)
      .getOrCreate()
    tuneSpark(spark)
    spark
  }

  /** Local-run tuning: the lite lakes are small, so adaptive execution with
    * partition coalescing removes most fixed shuffle overhead, and a low
    * shuffle-partition count (8) keeps per-task scheduling overhead from
    * dominating the many-join SANTOS dataflow. Cached plans are planned
    * adaptively too, and bucketed scans (no lake table is bucketed) are
    * left as planned, so `persist()` plans in the caller's session instead
    * of in a fresh clone of it per persisted DataFrame, each of which
    * removes its artifact directory with a child process once collected.
    */
  def tuneSpark(spark: SparkSession): Unit = {
    spark.conf.set("spark.sql.adaptive.enabled", "true")
    spark.conf.set("spark.sql.adaptive.coalescePartitions.enabled", "true")
    spark.conf.set("spark.sql.optimizer.canChangeCachedPlanOutputPartitioning", "true")
    spark.conf.set("spark.sql.sources.bucketing.autoBucketedScan.enabled", "false")
    spark.conf.set("spark.sql.shuffle.partitions", "8")
  }

  /** @param timeQueries how many queries to re-run individually for the
    *                    query-time sample (0 = skip timing)
    * @param kbConfig    KB degradation knobs (Fig. 9 ablation, TURL)
    */
  def run(spark: SparkSession, world: World, bench: Benchmark, method: Method,
          kbConfig: KBConfig = KBConfig(), timeQueries: Int = 0): RunResult = {
    bench.lakeCells.persist(); bench.lakeCells.count()
    bench.queryCells.persist(); bench.queryCells.count()
    method match {
      case Method.D3LBaseline => runD3L(bench, timeQueries)
      case Method.TurlBaseline =>
        runSantos(spark, world, bench, useKb = true, useSynth = false,
                  Turl.kbConfig, columnOnly = false, timeQueries, method)
      case Method.SantosFull =>
        runSantos(spark, world, bench, useKb = true, useSynth = true,
                  kbConfig, columnOnly = false, timeQueries, method)
      case Method.SantosKB =>
        runSantos(spark, world, bench, useKb = true, useSynth = false,
                  kbConfig, columnOnly = false, timeQueries, method)
      case Method.SantosSynth =>
        runSantos(spark, world, bench, useKb = false, useSynth = true,
                  kbConfig, columnOnly = false, timeQueries, method)
      case Method.SantosCol =>
        runSantos(spark, world, bench, useKb = true, useSynth = true,
                  kbConfig, columnOnly = true, timeQueries, method)
    }
  }

  private def queryCellsOf(bench: Benchmark, tableId: String): DataFrame =
    bench.queryCells.filter(col("table_id") === tableId)

  private def runSantos(spark: SparkSession, world: World, bench: Benchmark,
                        useKb: Boolean, useSynth: Boolean, kbConfig: KBConfig,
                        columnOnly: Boolean, timeQueries: Int, method: Method): RunResult = {
    val intents: Map[String, Int] = bench.queries.map(q => q.tableId -> q.intentCol).toMap

    val (index, indexMillis) = timed {
      val kb = if (useKb) Some(KBDictionaries.build(spark, world, kbConfig).materialize()) else None
      SemanticIndex.build(bench.lakeCells, kb, useSynth)
    }

    def searchFor(cells: DataFrame, queryIntents: Map[String, Int]): Map[String, Seq[Ranked]] = {
      val ann = QueryAnnotator.annotate(cells, index)
      if (columnOnly) {
        UnionSearch.searchColumnOnly(queryIntents.keys.toSeq.sorted,
                                     Scoring.columnOnlyScores(ann, index), bench.k)
      } else {
        val trees = QueryAnnotator.queryTrees(ann, queryIntents)
        UnionSearch.searchAll(trees, Scoring.edgeScores(ann, index), bench.k)
      }
    }

    val rankings = searchFor(bench.queryCells, intents)

    val queryTimes = bench.queries.take(timeQueries).map { q =>
      timed(searchFor(queryCellsOf(bench, q.tableId), Map(q.tableId -> q.intentCol)))._2
    }

    index.unpersistAll()
    RunResult(bench.name, method, bench.k, indexMillis.toLong, rankings,
              bench.groundTruth, queryTimes)
  }

  private def runD3L(bench: Benchmark, timeQueries: Int): RunResult = {
    val (index, indexMillis) = timed(D3L.buildIndex(bench.lakeCells))
    val queryIds = bench.queries.map(_.tableId)
    val rankings = D3L.search(bench.queryCells, index, queryIds, bench.k)
    val queryTimes = bench.queries.take(timeQueries).map { q =>
      timed(D3L.search(queryCellsOf(bench, q.tableId), index, Seq(q.tableId), bench.k))._2
    }
    RunResult(bench.name, Method.D3LBaseline, bench.k, indexMillis.toLong, rankings,
              bench.groundTruth, queryTimes)
  }
}
