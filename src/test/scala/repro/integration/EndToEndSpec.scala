package repro.integration

import repro.SparkSpec
import repro.eval.{Harness, Method}
import repro.kb.{KBConfig, World}

/** End-to-end behaviour of the full system on micro benchmarks: the paper's
  * qualitative claims at miniature scale.
  */
class EndToEndSpec extends SparkSpec {

  lazy val world = new World(42L)

  lazy val trapBench = MicroBenchmarks.trap(spark, world)
  lazy val synthBench = MicroBenchmarks.zeroCoverage(spark, world)

  test("SANTOS_Full keeps the Birthplace trap out of the top-k") {
    val res = Harness.run(spark, world, trapBench, Method.SantosFull)
    trapBench.queries.foreach { q =>
      val top = res.rankings(q.tableId).take(5).map(_.tableId)
      val traps = top.count(_.startsWith("birthplaces"))
      assert(traps === 0, s"traps in top-5 for ${q.tableId}: $top")
    }
    assert(res.avgP > 0.7, s"avgP=${res.avgP}")
  }

  test("SANTOS_Full is at least as good as the TURL-style annotator") {
    // The micro benchmark is easy enough that both can saturate; the real
    // separation is measured at bench scale (Figure 7). Here we only require
    // that degrading the annotator never helps.
    val fullRes = Harness.run(spark, world, trapBench, Method.SantosFull)
    val turlRes = Harness.run(spark, world, trapBench, Method.TurlBaseline)
    assert(fullRes.avgMap >= turlRes.avgMap - 1e-9,
      s"full=${fullRes.avgMap} turl=${turlRes.avgMap}")
  }

  test("SANTOS_KB returns nothing for zero-coverage queries; Synth compensates") {
    val kbRes = Harness.run(spark, world, synthBench, Method.SantosKB)
    val fullRes = Harness.run(spark, world, synthBench, Method.SantosFull)
    synthBench.queries.foreach { q =>
      assert(kbRes.rankings(q.tableId).isEmpty, s"KB-only should fail on ${q.tableId}")
      assert(fullRes.rankings(q.tableId).nonEmpty, s"Full should answer ${q.tableId}")
    }
    assert(fullRes.avgP > 0.6, s"avgP=${fullRes.avgP}")
  }

  test("SANTOS_Synth alone answers zero-coverage queries") {
    val res = Harness.run(spark, world, synthBench, Method.SantosSynth)
    assert(res.avgP > 0.6, s"avgP=${res.avgP}")
  }

  test("removing the whole KB lowers effectiveness on a KB-covered benchmark") {
    val full = Harness.run(spark, world, trapBench, Method.SantosFull)
    val noKb = Harness.run(spark, world, trapBench, Method.SantosFull,
      kbConfig = KBConfig(entityFraction = 0.0))
    assert(full.avgMap >= noKb.avgMap - 1e-9,
      s"full=${full.avgMap} noKb=${noKb.avgMap}")
  }

  test("rankings never exceed k and scores are sorted descending") {
    val res = Harness.run(spark, world, trapBench, Method.SantosFull)
    res.rankings.values.foreach { ranked =>
      assert(ranked.size <= trapBench.k)
      assert(ranked.map(_.score) === ranked.map(_.score).sorted.reverse)
    }
  }

  test("the harness reports indexing time and per-query times when asked") {
    val res = Harness.run(spark, world, synthBench, Method.SantosSynth, timeQueries = 2)
    assert(res.indexMillis > 0)
    assert(res.queryTimesMillis.size === 2)
    assert(res.queryTimesMillis.forall(_ > 0))
  }

  test("metricsAt evaluates rankings at smaller k") {
    val res = Harness.run(spark, world, trapBench, Method.SantosFull)
    val atK = res.avgP(trapBench.k)
    val at1 = res.avgP(1)
    assert(at1 >= atK - 1e-9) // precision@1 should be at least precision@k here
    assert(res.metricsAt(1).size === trapBench.queries.size)
  }

  test("the column-only variant runs and is no better than full SANTOS here") {
    val colRes = Harness.run(spark, world, trapBench, Method.SantosCol)
    val fullRes = Harness.run(spark, world, trapBench, Method.SantosFull)
    assert(colRes.rankings.values.exists(_.nonEmpty))
    assert(fullRes.avgP >= colRes.avgP - 0.21,
      s"full=${fullRes.avgP} col=${colRes.avgP}")
  }

  test("D3L is fooled by the trap more than SANTOS") {
    val d3l = Harness.run(spark, world, trapBench, Method.D3LBaseline)
    val santos = Harness.run(spark, world, trapBench, Method.SantosFull)
    assert(santos.avgP >= d3l.avgP, s"santos=${santos.avgP} d3l=${d3l.avgP}")
  }
}
