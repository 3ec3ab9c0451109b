package repro.integration

import org.apache.spark.sql.SparkSession

import repro.kb.World
import repro.lake.BenchmarkGen
import repro.lake.BenchmarkGen._

/** Micro benchmarks for end-to-end checks of the paper's qualitative claims. */
object MicroBenchmarks {

  /** Parks + the Birthplace trap (Ex. 1) + an unrelated domain. */
  def trap(spark: SparkSession, world: World): Benchmark = BenchmarkGen.generate(
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
      DomainSpec("movies", Some("movie"), Seq(
        SubjectCol("film_title"), PropCol("director", "directedby")),
        nSubjects = 90, nPartitions = 6, kbCoverage = 0.9, isQuery = false),
    ),
    queriesPerDomain = 2, seed = 21L)

  /** A zero-KB-coverage domain next to covered ones. */
  def zeroCoverage(spark: SparkSession, world: World): Benchmark = BenchmarkGen.generate(
    spark, world, "ZEROCOV", k = 4,
    Seq(
      DomainSpec("programs", None, Seq(
        SubjectCol("program_name"), LocalPropCol("department", 12),
        LocalPropCol("category", 6)),
        nSubjects = 90, nPartitions = 6, kbCoverage = 0.0, isQuery = true),
      DomainSpec("schools", Some("school"), Seq(
        SubjectCol("school_name"), PropCol("city", "locatedin")),
        nSubjects = 90, nPartitions = 6, kbCoverage = 0.9, isQuery = false),
    ),
    queriesPerDomain = 2, seed = 22L)
}
