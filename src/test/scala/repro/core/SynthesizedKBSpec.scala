package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.lake.LakeSchema
import repro.lake.LakeSchema.TableData

/** The synthesized KB (Sec. 5, Sec. 7.2), pinned to the Fig. 2 / Fig. 5 /
  * Ex. 19 worked example.
  *
  * The Fig. 2 tables are reverse-engineered from the Fig. 5 scores:
  * T1 = {(brands park, moana), (kells park, spider-man), (eckhart park, avengers)},
  * T2 = {(kells park, spider-man), (eckhart park, avengers),
  *       (union park, black panther), (chopin park, trolls), (gompers park, coco)},
  * T3 = {(union park, black panther), (gill park, wonder)}.
  * Overlaps: |T1∩T2| = 2, |T2∩T3| = 1, |T1∩T3| = 0.
  */
class SynthesizedKBSpec extends SparkSpec {

  lazy val fig2 = PaperFixtures.fig2Tables(spark)
  lazy val index: SynthIndex = SynthesizedKB.build(fig2)

  /** A row's own column key, the annotation of its self row. */
  private val colKey = concat_ws("#", col("table_id"), col("col_id"))

  private def rsConf(table: String, ann: String): Option[Double] =
    index.synRS
      .filter(col("table_id") === table && col("col_a") === 0 && col("col_b") === 1 &&
              col("annotation") === ann)
      .collect().headOption.map(_.getAs[Double]("conf"))

  // ----------------------------------------------------------------- Eq. (6)

  test("Ex. 19: T1's pair inherits RS(T2) with confidence 2/3") {
    assert(math.abs(rsConf("T1", "T2#0#1").get - 2.0 / 3.0) < 1e-9)
  }

  test("Ex. 19: T2's pair inherits RS(T1) with confidence 2/5") {
    assert(math.abs(rsConf("T2", "T1#0#1").get - 0.4) < 1e-9)
  }

  test("Ex. 19: T2's pair inherits RS(T3) with confidence 1/5") {
    assert(math.abs(rsConf("T2", "T3#0#1").get - 0.2) < 1e-9)
  }

  test("Ex. 19: T3's pair inherits RS(T2) with confidence 1/2") {
    assert(math.abs(rsConf("T3", "T2#0#1").get - 0.5) < 1e-9)
  }

  test("self relationship annotations have confidence 1") {
    Seq("T1", "T2", "T3").foreach { t =>
      assert(math.abs(rsConf(t, s"$t#0#1").get - 1.0) < 1e-9)
    }
  }

  test("disjoint pairs get no cross annotation (T1 vs T3)") {
    assert(rsConf("T1", "T3#0#1").isEmpty)
    assert(rsConf("T3", "T1#0#1").isEmpty)
  }

  // ------------------------------------------------------------------ Fig. 5

  /** Per-value-pair type scores of the Synthesized Relationship Dictionary
    * (Fig. 5 / Ex. 19): every value pair of column pair P carries annotation
    * P' with score overlap(P,P')/|P| (1 when P' = P). The search path consumes
    * the column-pair-level Eq. 6 scores in [[SynthIndex.synRS]] instead.
    *
    * Output: (value_a, value_b, annotation, score).
    */
  private def valuePairScores(index: SynthIndex): DataFrame =
    index.fdPairVals
      .join(index.synRS, Seq("table_id", "col_a", "col_b"))
      .groupBy("value_a", "value_b", "annotation")
      .agg(max(col("conf")).as("score"))

  test("Fig. 5: per-value-pair dictionary rows match the paper") {
    val scores = valuePairScores(index)
      .filter(col("annotation").endsWith("#0#1"))
      .collect()
      .map(r => ((r.getString(0), r.getString(1)), r.getString(2).takeWhile(_ != '#'),
                 r.getAs[Double]("score")))
      .groupBy(_._1).map { case (k, xs) => k -> xs.map(x => x._2 -> x._3).toMap }

    val brandsMoana = scores(("brands park", "moana"))
    assert(math.abs(brandsMoana("T1") - 1.0) < 1e-9)
    assert(math.abs(brandsMoana("T2") - 2.0 / 3.0) < 1e-9)

    val kellsSpider = scores(("kells park", "spider-man"))
    assert(math.abs(kellsSpider("T1") - 1.0) < 1e-9)
    assert(math.abs(kellsSpider("T2") - 1.0) < 1e-9)
    assert(math.abs(kellsSpider("T3") - 0.2) < 1e-9)

    val unionPanther = scores(("union park", "black panther"))
    assert(math.abs(unionPanther("T1") - 0.4) < 1e-9)
    assert(math.abs(unionPanther("T2") - 1.0) < 1e-9)
    assert(math.abs(unionPanther("T3") - 1.0) < 1e-9)

    val chopinTrolls = scores(("chopin park", "trolls"))
    assert(math.abs(chopinTrolls("T1") - 0.4) < 1e-9)
    assert(math.abs(chopinTrolls("T2") - 1.0) < 1e-9)
    assert(math.abs(chopinTrolls("T3") - 0.2) < 1e-9)

    val gillWonder = scores(("gill park", "wonder"))
    assert(math.abs(gillWonder("T2") - 0.5) < 1e-9)
    assert(math.abs(gillWonder("T3") - 1.0) < 1e-9)
    assert(!gillWonder.contains("T1"))
  }

  // ----------------------------------------------------------------- Eq. (5)

  test("synthesized CS: park columns overlap per Eq. 5") {
    val conf = index.synCS
      .filter(col("table_id") === "T1" && col("col_id") === 0 &&
              col("annotation") === "T2#0")
      .head().getAs[Double]("conf")
    assert(math.abs(conf - 2.0 / 3.0) < 1e-9) // kells, eckhart of 3 parks
  }

  test("synthesized CS is asymmetric (normalized by the inheriting column)") {
    val conf = index.synCS
      .filter(col("table_id") === "T2" && col("col_id") === 0 &&
              col("annotation") === "T1#0")
      .head().getAs[Double]("conf")
    assert(math.abs(conf - 2.0 / 5.0) < 1e-9)
  }

  test("synthesized CS self annotations have confidence 1") {
    val selfRows = index.synCS.filter(col("annotation") === colKey)
    assert(selfRows.count() === 6) // 3 tables x 2 columns
    selfRows.collect().foreach(r => assert(r.getAs[Double]("conf") === 1.0))
  }

  test("film columns do not overlap park columns") {
    val cross = index.synCS.filter(
      col("table_id") === "T1" && col("col_id") === 0 && col("annotation") === "T1#1")
    assert(cross.count() === 0)
  }

  // ----------------------------------------------------- FD gating & exclusion

  test("non-FD column pairs get no synthesized relationship") {
    val cells = LakeSchema.cellsOf(spark, Seq(
      TableData("v", Seq("a", "b"), Seq(true, true), Seq(
        Seq("x", "p"), Seq("x", "q"), Seq("p", "x"), Seq("q", "x")))))
    val idx = SynthesizedKB.build(cells)
    assert(idx.synRS.filter(col("table_id") === "v").count() === 0)
  }

  test("KB-covered value pairs are excluded from the dictionary (Sec. 7.2)") {
    val kb = PaperFixtures.birthplaceKb(spark)
    // relDict knows (ada, boston) etc.; a lake with exactly those pairs plus
    // one unknown pair keeps only the unknown pair.
    val cells = LakeSchema.cellsOf(spark, Seq(
      TableData("t", Seq("p", "b"), Seq(true, true), Seq(
        Seq("ada", "boston"), Seq("bob", "dallas"), Seq("zz person", "zz city")))))
    val idx = SynthesizedKB.build(cells, excludeKb = Some(kb))
    val keptPairs = idx.fdPairVals.filter(col("col_a") === 0)
      .select("value_a", "value_b").collect().map(r => (r.getString(0), r.getString(1))).toSet
    assert(keptPairs === Set(("zz person", "zz city")))
    // Eq. 6 denominator still counts all three pairs.
    val n = idx.pairSizes.filter(col("table_id") === "t" && col("col_a") === 0)
      .head().getAs[Long]("n_pairs")
    assert(n === 3)
  }

  test("maxValueSpread suppresses ubiquitous values in the type overlap") {
    val tables = (1 to 5).map { i =>
      TableData(s"s$i", Seq("c"), Seq(true), Seq(Seq("everywhere"), Seq(s"only$i")))
    }
    val cells = LakeSchema.cellsOf(spark, tables)
    val idx = SynthesizedKB.build(cells, maxValueSpread = 3)
    // "everywhere" is in 5 columns > 3, so no cross-column CS survives.
    val cross = idx.synCS.filter(col("annotation") =!= colKey)
    assert(cross.count() === 0)
  }

  test("synthesized CS overlap counts match DuckDB") {
    val got = index.synCS
      .filter(col("annotation") =!= colKey)
      .select(col("table_id"), col("col_id").cast("string").as("col_id"),
              col("annotation"), format_number(col("conf"), 4).as("conf"))
    Oracle.assertEquivalent(got,
      """WITH cv AS (
        |  SELECT DISTINCT table_id, col_id, lower(trim(value)) AS value FROM cells
        |), sizes AS (
        |  SELECT table_id, col_id, COUNT(*) AS n FROM cv GROUP BY table_id, col_id
        |)
        |SELECT a.table_id, a.col_id,
        |       b.table_id || '#' || b.col_id AS annotation,
        |       printf('%.4f', COUNT(*) * 1.0 / ANY_VALUE(s.n)) AS conf
        |FROM cv a JOIN cv b ON a.value = b.value
        |  AND (a.table_id <> b.table_id OR a.col_id <> b.col_id)
        |JOIN sizes s ON s.table_id = a.table_id AND s.col_id = a.col_id
        |GROUP BY a.table_id, a.col_id, b.table_id, b.col_id""".stripMargin,
      "cells" -> fig2)
  }
}
