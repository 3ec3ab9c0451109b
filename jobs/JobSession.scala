package jobs

import repro.eval.{BenchRunner, Harness}
import repro.kb.World

/** Shared SparkSession + runner bootstrap for the spark-submit entrypoints.
  * Each job prints one reproduced table to stdout.
  */
object JobSession {
  def runner(appName: String): BenchRunner = {
    val spark = Harness.session(appName)
    spark.sparkContext.setLogLevel("WARN")
    new BenchRunner(spark, new World(42L))
  }
}
