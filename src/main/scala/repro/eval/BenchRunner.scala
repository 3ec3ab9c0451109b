package repro.eval

import org.apache.spark.sql.SparkSession
import scala.collection.mutable

import repro.kb.{KBConfig, World}
import repro.lake.BenchmarkGen
import repro.lake.BenchmarkGen.Benchmark

/** Orchestrates the paper's evaluation grid with memoization, so the figure
  * suites (Fig. 7/8/9/10) share the expensive (benchmark, method) runs
  * instead of re-indexing the lake per figure.
  */
final class BenchRunner(spark: SparkSession, val world: World) {

  private val benchCache = mutable.Map[String, Benchmark]()
  private val runCache = mutable.Map[(String, String), RunResult]()

  /** How many queries to re-run individually for Fig. 10 timing. */
  val timedQueries = 5

  def benchmark(name: String): Benchmark = benchCache.getOrElseUpdate(name, name match {
    case "TUS"   => BenchmarkGen.tus(spark, world)
    case "SMALL" => BenchmarkGen.small(spark, world)
    case "LARGE" => BenchmarkGen.large(spark, world)
    case other   => throw new IllegalArgumentException(s"unknown benchmark $other")
  })

  private val warmedUp = mutable.Set[Method]()

  /** A memoized standard run (full KB, with per-query timing sample). The
    * first run of each method is preceded by an untimed one on the same
    * benchmark, so that no timed run (Fig. 10) pays the JVM's and Spark's
    * first-run costs.
    */
  def run(benchName: String, method: Method): RunResult =
    runCache.getOrElseUpdate((benchName, method.label), {
      if (warmedUp.add(method)) {
        Console.err.println(s"[bench] warming up ${method.label} on $benchName ...")
        Harness.run(spark, world, benchmark(benchName), method)
      }
      Console.err.println(s"[bench] running $benchName / ${method.label} ...")
      Harness.run(spark, world, benchmark(benchName), method, timeQueries = timedQueries)
    })

  /** A memoized Fig. 9 ablation run: SANTOS_Full with a subsampled KB.
    * fraction 1.0 reuses the standard SANTOS_Full run.
    */
  def runAblation(benchName: String, fraction: Double): RunResult =
    if (fraction >= 1.0) run(benchName, Method.SantosFull)
    else runCache.getOrElseUpdate((benchName, f"ablation-$fraction%.2f"), {
      Console.err.println(f"[bench] running $benchName / SANTOS_Full @ KB=$fraction%.2f ...")
      Harness.run(spark, world, benchmark(benchName), Method.SantosFull,
                  kbConfig = KBConfig(entityFraction = fraction))
    })
}

object BenchRunner {
  /** Shared instance for the bench test suites (one JVM per `bench/test`). */
  private var instance: Option[BenchRunner] = None

  def shared(spark: SparkSession): BenchRunner = synchronized {
    instance match {
      case Some(r) => r
      case None =>
        val r = new BenchRunner(spark, new World(42L))
        instance = Some(r)
        r
    }
  }
}
