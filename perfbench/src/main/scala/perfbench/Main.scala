package perfbench

import java.io.PrintWriter
import java.lang.management.ManagementFactory

import scala.collection.mutable
import scala.util.{Failure, Random, Try}

import org.apache.spark.SparkContext
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions.{col, count, countDistinct, lit, max, min}

import repro.core.LakeIndex
import repro.core.UnionSearch.Ranked
import repro.eval.{Harness, Metrics}
import repro.kb.World
import repro.lake.BenchmarkGen
import repro.lake.BenchmarkGen.Benchmark

/** The union-search benchmark: one JVM, one client thread, Spark in local
  * mode with the settings the program's own jobs use.
  *
  * {{{
  * perfbench.Main --workload <tus-interactive|large-index> --seed <n>
  *                --seconds <s> --trace <0|1> [--spans <file>]
  * }}}
  *
  * Workloads (the seed goes only to the benchmark generator and to the order
  * in which the client sends queries):
  *  - tus-interactive: TUS-lite; the index is built in set-up, then a closed
  *    loop with one client sends the query tables one at a time, each as a
  *    single-query search. Only the query layers run in the measured window.
  *  - large-index: LARGE-lite; each iteration builds the KB dictionaries and
  *    the lake index from scratch, the indexing phase of the paper's offline
  *    flow. Only the index layers run in the measured window.
  *
  * The measured window starts operations until `--seconds` have passed and
  * lets the one in flight finish, so every run measures at least one. Every
  * ranking and every index built in the measured window is checked.
  */
object Main {

  final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean,
                        spans: Option[String])

  /** What a workload measured. */
  final class Measured(val bench: Benchmark) {
    var setupS = 0.0
    val indexBuildS = mutable.ArrayBuffer[Double]()
    val indexMemMb = mutable.ArrayBuffer[Double]()
    /** Wall time of each measured operation: a search call or an index build. */
    val opMs = mutable.ArrayBuffer[Double]()
    var loopS = 0.0
    /** Checked outputs: query rankings and built indexes. */
    var attempted = 0L
    var failed = 0L
    var queries = 0L
    /** First ranking seen per query; later rankings of it must equal it. */
    val reference = mutable.LinkedHashMap[String, Seq[Ranked]]()
    /** Every query sent, in first-sent order. */
    val sent = mutable.LinkedHashSet[String]()
    val problems = mutable.ArrayBuffer[String]()

    /** Checks the answer to one query of a search call and counts it. */
    def check(query: String, result: Try[Map[String, Seq[Ranked]]]): Unit = {
      attempted += 1
      queries += 1
      sent += query
      val ranked = result.toOption.flatMap(_.get(query))
      val problem = (result, ranked) match {
        case (Failure(e), _) => Some(s"threw $e")
        case (_, None) => Some("no ranking returned")
        case (_, Some(r)) =>
          wellFormedProblem(r).orElse(reference.get(query).collect {
            case ref if ref != r => "ranking differs from the reference ranking"
          })
      }
      problem match {
        case Some(p) =>
          failed += 1
          problems += s"$query: $p"
        case None => ranked.foreach(r => reference.getOrElseUpdate(query, r))
      }
    }

    /** Checks one built index and counts it. A build that throws ends the
      * run instead: nothing after it could be measured.
      */
    def checkIndex(index: LakeIndex): Unit = {
      attempted += 1
      indexProblem(index, bench.nLakeTables).foreach { p =>
        failed += 1
        problems += s"index: $p"
      }
    }

    /** Every query table is also a lake table, so its search finds at least
      * that table.
      */
    private def wellFormedProblem(r: Seq[Ranked]): Option[String] =
      if (r.isEmpty) Some("no results")
      else if (r.size > bench.k) Some(s"${r.size} results for k=${bench.k}")
      else if (r.map(x => (-x.score, x.tableId)) != r.map(x => (-x.score, x.tableId)).sorted)
        Some("results not sorted by descending score")
      else if (r.exists(x => !(x.score > 0.0))) Some("non-positive score")
      else if (r.map(_.tableId).distinct.size != r.size) Some("duplicate tables")
      else None
  }

  def main(argv: Array[String]): Unit = {
    val args = parse(argv.toList)
    val runner = jobs.JobSession.runner("perfbench")
    val spark = SparkSession.active
    Harness.tuneSpark(spark)
    val tr = new Tracer(spark.sparkContext, args.trace)
    printEnv(spark, args)

    val m = args.workload match {
      case "tus-interactive" => tusInteractive(spark, runner.world, args, tr)
      case "large-index" => largeIndex(spark, runner.world, args, tr)
      case other => throw new IllegalArgumentException(s"unknown workload $other")
    }
    tr.drain()
    m.problems.take(20).foreach(p => println(s"# failed: $p"))

    val e2e = endToEnd(m)
    e2e.foreach { case (name, (v, unit, n)) => println(f"# $name%-14s $v%s $unit (n=$n)") }
    if (m.queries > 0) effectiveness(m).foreach { case (name, v, n) => println(s"# $name $v (n=$n)") }
    if (m.queries > 0) println(s"# ${tail(m.opMs.toSeq)}")
    println(s"# operations_per_s ${m.opMs.size / m.loopS} (n=${m.opMs.size})")
    println(s"# failed_frac ${m.failed.toDouble / math.max(1L, m.attempted)} " +
            s"(${m.failed} of ${m.attempted} checked outputs: ${m.queries} rankings, " +
            s"${m.attempted - m.queries} indexes)")
    println("perfbench-e2e " + Json.obj(e2e.map { case (k, (v, _, _)) => k -> Json.num(v) }))

    val metrics: Seq[(String, Double, String)] =
      if (args.trace) {
        val layers = perLayer(tr, m, spark.sparkContext.defaultParallelism)
        printSelfTimes(tr)
        args.spans.foreach(writeSpans(tr, _))
        layers
      } else e2e.map { case (name, (v, unit, _)) => (name, v, unit) }

    val correct = m.failed == 0 && metrics.forall(x => !x._2.isNaN && !x._2.isInfinite)
    println(Json.obj(Seq(
      "correct" -> correct.toString,
      "attempted" -> m.attempted.toString,
      "failed" -> m.failed.toString,
      "metrics" -> Json.obj(metrics.map { case (name, v, unit) =>
        name -> Json.obj(Seq("value" -> Json.num(v), "unit" -> Json.str(unit)))
      }))))
    spark.stop()
  }

  // ------------------------------------------------------------ workloads

  private def cacheInputs(m: Measured): Unit = {
    // As Harness.run does before indexing.
    m.bench.lakeCells.persist(); m.bench.lakeCells.count()
    m.bench.queryCells.persist(); m.bench.queryCells.count()
  }

  private def sinceJvmStartS(): Double =
    (System.currentTimeMillis() - ManagementFactory.getRuntimeMXBean.getStartTime) / 1000.0

  private def timed[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = body
    (a, (System.nanoTime() - t0) / 1e9)
  }

  /** Builds the index, recording its build time and the storage it holds. */
  private def buildIndex(spark: SparkSession, world: World, bench: Benchmark, tr: Tracer,
                         m: Measured): LakeIndex = {
    val before = Storage.snapshot(spark.sparkContext)
    val (index, s) = timed(Pipeline.buildIndex(spark, world, bench.lakeCells, tr))
    m.indexBuildS += s
    m.indexMemMb += Storage.newBytes(spark.sparkContext, before) / 1e6
    index
  }

  /** What a SANTOS_Full index must hold whatever the lake: every inverted
    * index non-empty with confidences in (0, 1], and the synthesized column
    * index covering every lake table, since each string column annotates
    * itself.
    */
  def indexProblem(index: LakeIndex, nLakeTables: Int): Option[String] = {
    val parts = Seq("kbCS" -> index.kbCS, "kbRS" -> index.kbRS,
                    "synCS" -> index.synth.map(_.synCS), "synRS" -> index.synth.map(_.synRS))
    parts.collectFirst { case (name, None) => s"$name missing" }.orElse {
      // One job over all four: (rows, min conf, max conf, tables) per index.
      val stats = parts.collect { case (name, Some(df)) =>
        df.select(lit(name).as("index"), col("table_id"), col("conf"))
      }.reduce(_ union _)
        .groupBy("index").agg(count(lit(1)), min("conf"), max("conf"), countDistinct("table_id"))
        .collect().map(r => r.getString(0) -> r).toMap
      parts.iterator.map { case (name, _) =>
        stats.get(name) match {
          case None => Some(s"$name empty")
          case Some(r) if !(r.getDouble(2) > 0.0 && r.getDouble(3) <= 1.0) =>
            Some(s"$name confidences outside (0, 1]: ${r.getDouble(2)}..${r.getDouble(3)}")
          case Some(r) if name == "synCS" && r.getLong(4) != nLakeTables =>
            Some(s"synCS covers ${r.getLong(4)} of $nLakeTables lake tables")
          case _ => None
        }
      }.collectFirst { case Some(p) => p }
    }
  }

  def tusInteractive(spark: SparkSession, world: World, args: Args, tr: Tracer): Measured = {
    val bench = BenchmarkGen.tus(spark, world, args.seed)
    val m = new Measured(bench)
    cacheInputs(m)
    val index = buildIndex(spark, world, bench, tr, m)
    val order = new Random(args.seed).shuffle(bench.queries).toVector

    m.setupS = sinceJvmStartS()
    tr.measuring = true
    val t0 = System.nanoTime()
    var i = 0
    while (i == 0 || (System.nanoTime() - t0) / 1e9 < args.seconds) {
      val q = order(i % order.size)
      val cells = bench.queryCells.filter(col("table_id") === q.tableId)
      val (ranked, s) = timed(Try(
        Pipeline.search(cells, Map(q.tableId -> q.intentCol), index, bench.k, tr, q.tableId)))
      m.opMs += s * 1000
      println(s"# call $i ${q.tableId} ${s * 1000} ms")
      m.check(q.tableId, ranked)
      i += 1
    }
    m.loopS = (System.nanoTime() - t0) / 1e9
    m
  }

  def largeIndex(spark: SparkSession, world: World, args: Args, tr: Tracer): Measured = {
    val bench = BenchmarkGen.large(spark, world, args.seed)
    val m = new Measured(bench)
    cacheInputs(m)

    m.setupS = sinceJvmStartS()
    tr.measuring = true
    var i = 0
    while (i == 0 || m.loopS < args.seconds) {
      val t0 = System.nanoTime()
      val index = buildIndex(spark, world, bench, tr, m)
      m.opMs += m.indexBuildS.last * 1000
      val (_, checkS) = timed(m.checkIndex(index))
      println(f"# build $i ${m.opMs.last}%.1f ms, checked in ${checkS * 1000}%.1f ms")
      index.unpersistAll()
      m.loopS += (System.nanoTime() - t0) / 1e9
      i += 1
    }
    m
  }

  // -------------------------------------------------------------- metrics

  private def median(xs: Seq[Double]): Double = Metrics.percentile(xs, 0.5)

  /** End-to-end metrics: name -> (value, unit, sample count). */
  def endToEnd(m: Measured): Seq[(String, (Double, String, Int))] = Seq(
    "setup_s" -> (m.setupS, "s", 1),
    "latency_ms" -> (median(m.opMs.toSeq), "ms", m.opMs.size),
    "index_build_s" -> (median(m.indexBuildS.toSeq), "s", m.indexBuildS.size),
    "index_mem_mb" -> (median(m.indexMemMb.toSeq), "MB", m.indexMemMb.size),
  )

  /** MAP@k and P@k of the first ranking of every query sent, against ground
    * truth; a query that failed counts with an empty ranking.
    */
  def effectiveness(m: Measured): Seq[(String, Double, Int)] = {
    val bench = m.bench
    val sent = m.sent.toSeq
    val rankedIds = sent.map(q => m.reference.get(q).map(_.map(_.tableId)).getOrElse(Seq.empty))
    val maps = sent.zip(rankedIds).map { case (q, ids) => Metrics.mapAtK(ids, bench.groundTruth(q), bench.k) }
    val ps = sent.zip(rankedIds).map { case (q, ids) => Metrics.precisionAtK(ids, bench.groundTruth(q), bench.k) }
    Seq(("map_at_k", Metrics.mean(maps), maps.size), ("p_at_k", Metrics.mean(ps), ps.size))
  }

  /** The highest percentile with at least ten samples beyond it. */
  def tail(xs: Seq[Double]): String = {
    val n = xs.size
    if (n < 11) s"query_tail_ms n/a (n=$n; a tail needs at least 11 samples)"
    else {
      val p = 1.0 - 10.0 / n
      f"query_tail_ms ${Metrics.percentile(xs, p)} ms (p${p * 100}%.1f, n=$n)"
    }
  }

  /** The components `SemanticIndex.build` composes, in its order. */
  val indexComponentSpans: Seq[String] = Seq(
    "lake.LakeSchema.valuePairs",
    "core.ColumnSemantics.compute",
    "core.RelationshipSemantics.computeFromPairs",
    "core.FDDiscovery.unaryFds",
    "core.SynthesizedKB.build",
  )
  val querySpans: Seq[String] = Seq(
    "core.QueryAnnotator.annotate",
    "core.QueryAnnotator.queryTrees",
    "core.Scoring.edgeScores",
    "core.UnionSearch.searchAll",
  )
  val spanNames: Seq[String] =
    ("kb.KBDictionaries.build" +: indexComponentSpans :+ "core.SemanticIndex.build") ++ querySpans

  /** Calls of a span name: the measured ones, or the set-up ones if none. */
  private def callsOf(tr: Tracer, name: String): Seq[Span] = {
    val all = tr.recorded.filter(_.name == name)
    val measured = all.filter(_.measured)
    if (measured.nonEmpty) measured else all
  }

  /** Per-layer metrics, each counter a mean per call of the span. */
  def perLayer(tr: Tracer, m: Measured, cores: Int): Seq[(String, Double, String)] = {
    val mb = 1e6
    val perSpan = spanNames.flatMap { name =>
      val calls = callsOf(tr, name)
      val work = calls.map(tr.work)
      def mean(f: Int => Double): Double =
        if (calls.isEmpty) 0.0 else calls.indices.map(f).sum / calls.size
      val wall = calls.map(_.wallMs).sum
      Seq(
        ("ms", mean(i => calls(i).wallMs), "ms"),
        ("self_ms", mean(i => tr.selfMs(calls(i))), "ms"),
        ("rows", mean(i => calls(i).rows.toDouble), "count"),
        ("spark_jobs", mean(i => work(i).jobs.toDouble), "count"),
        ("spark_tasks", mean(i => work(i).tasks.toDouble), "count"),
        ("shuffle_write_mb", mean(i => work(i).shuffleWriteBytes / mb), "MB"),
        ("spill_mb", mean(i => work(i).spillBytes / mb), "MB"),
        ("gc_ms", mean(i => calls(i).gcMs.toDouble), "ms"),
        ("busy_frac", if (wall <= 0) 0.0 else work.map(_.taskRunMs).sum / (wall * cores), "ratio"),
      ).map { case (c, v, u) => (s"$name.$c", v, u) }
    }
    val queryCalls = querySpans.flatMap(callsOf(tr, _))
    val queries = math.max(1L, m.queries).toDouble
    val synthBuilds = math.max(1, callsOf(tr, "core.SynthesizedKB.build").size).toDouble
    val indexBuilds = math.max(1, callsOf(tr, "core.SemanticIndex.build").size).toDouble
    val results = callsOf(tr, "core.UnionSearch.searchAll").map(_.rows).sum.toDouble
    perSpan ++ Seq(
      ("spark.jobs_per_query", queryCalls.map(tr.work(_).jobs).sum / queries, "count"),
      ("core.UnionSearch.results_per_candidate",
        results / math.max(1L, tr.counted("core.UnionSearch.candidates")), "ratio"),
      ("core.Scoring.edge_rows_per_query",
        callsOf(tr, "core.Scoring.edgeScores").map(_.rows).sum / queries, "count"),
      ("core.SynthesizedKB.synCS_rows", tr.counted("core.SynthesizedKB.synCS_rows") / synthBuilds, "count"),
      ("core.SynthesizedKB.synRS_rows", tr.counted("core.SynthesizedKB.synRS_rows") / synthBuilds, "count"),
      ("core.SemanticIndex.cached_mb",
        tr.counted("core.SemanticIndex.cached_bytes") / indexBuilds / mb, "MB"),
    )
  }

  private def printSelfTimes(tr: Tracer): Unit = {
    println(f"# ${"span"}%-44s ${"calls"}%6s ${"ms"}%12s ${"self_ms"}%12s")
    spanNames.foreach { name =>
      val calls = callsOf(tr, name)
      println(f"# $name%-44s ${calls.size}%6d ${calls.map(_.wallMs).sum}%12.1f " +
              f"${calls.map(tr.selfMs).sum}%12.1f")
    }
    println(s"# jobs outside spans (benchmark bookkeeping): ${tr.unattributedJobs}")
  }

  private def writeSpans(tr: Tracer, path: String): Unit = {
    val t0 = tr.recorded.map(_.startNs).minOption.getOrElse(0L)
    val out = new PrintWriter(path)
    try tr.recorded.foreach { s =>
      val w = tr.work(s)
      out.println(Json.obj(Seq(
        "id" -> s.id.toString,
        "name" -> Json.str(s.name),
        "parent" -> s.parent.map(_.toString).getOrElse("null"),
        "query" -> Json.str(s.queryId),
        "measured" -> s.measured.toString,
        "start_ms" -> Json.num((s.startNs - t0) / 1e6),
        "end_ms" -> Json.num((s.endNs - t0) / 1e6),
        "self_ms" -> Json.num(tr.selfMs(s)),
        "rows" -> s.rows.toString,
        "spark_jobs" -> w.jobs.toString,
        "spark_tasks" -> w.tasks.toString,
        "task_run_ms" -> w.taskRunMs.toString,
        "shuffle_write_bytes" -> w.shuffleWriteBytes.toString,
        "spill_bytes" -> w.spillBytes.toString,
        "gc_ms" -> s.gcMs.toString)))
    } finally out.close()
    println(s"# spans written to $path")
  }

  // ----------------------------------------------------------- plumbing

  private def printEnv(spark: SparkSession, args: Args): Unit = {
    val sc = spark.sparkContext
    println(s"# workload=${args.workload} seed=${args.seed} seconds=${args.seconds} trace=${args.trace}")
    println(s"# cores=${Runtime.getRuntime.availableProcessors} " +
            s"defaultParallelism=${sc.defaultParallelism} " +
            s"driver_heap_mb=${Runtime.getRuntime.maxMemory / (1 << 20)} " +
            s"java=${System.getProperty("java.version")} spark=${spark.version}")
    val keys = Seq("spark.master", "spark.ui.enabled", "spark.sql.shuffle.partitions",
      "spark.sql.autoBroadcastJoinThreshold", "spark.sql.adaptive.enabled",
      "spark.sql.adaptive.coalescePartitions.enabled", "spark.local.dir")
    val conf = keys.map(k => s"$k=${spark.conf.getOption(k).orElse(sc.getConf.getOption(k)).getOrElse("(default)")}")
    println(s"# spark conf: ${conf.mkString(" ")}")
  }

  private def parse(argv: List[String]): Args = {
    def go(rest: List[String], acc: Map[String, String]): Map[String, String] = rest match {
      case flag :: value :: tail if flag.startsWith("--") => go(tail, acc + (flag.drop(2) -> value))
      case Nil => acc
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }
    val kv = go(argv, Map.empty)
    val workload = kv.getOrElse("workload", throw new IllegalArgumentException("--workload required"))
    val defaultSeed = if (workload == "large-index") 303L else 101L
    Args(workload, kv.get("seed").map(_.toLong).getOrElse(defaultSeed),
         kv.get("seconds").map(_.toDouble).getOrElse(10.0),
         kv.get("trace").contains("1"), kv.get("spans"))
  }
}

/** Spark storage held by cached RDDs. */
object Storage {
  def snapshot(sc: SparkContext): Set[Int] = sc.getRDDStorageInfo.map(_.id).toSet

  /** Bytes held by RDDs cached since `before` was taken. */
  def newBytes(sc: SparkContext, before: Set[Int]): Long =
    sc.getRDDStorageInfo.filterNot(i => before.contains(i.id)).map(i => i.memSize + i.diskSize).sum
}

/** Just enough JSON writing for the result line and the span file. */
object Json {
  def str(s: String): String =
    "\"" + s.flatMap {
      case '"' => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c => c.toString
    } + "\""

  def num(d: Double): String =
    if (d.isNaN || d.isInfinite) "null" else d.toString

  def obj(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
}
