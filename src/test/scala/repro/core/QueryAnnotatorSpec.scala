package repro.core

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.lake.LakeSchema
import repro.lake.LakeSchema.TableData

/** Query-phase annotation (Sec. 7.4) and query semantic tree construction. */
class QueryAnnotatorSpec extends SparkSpec {

  lazy val kb = PaperFixtures.birthplaceKb(spark)
  lazy val lake = PaperFixtures.fig2Tables(spark)
  lazy val index: LakeIndex = SemanticIndex.build(lake, kb = None, useSynth = true)

  test("query KB CS uses fs only (no gs penalty)") {
    val idx = SemanticIndex.build(PaperFixtures.peopleTable(spark), Some(kb), useSynth = false)
    val ann = QueryAnnotator.annotate(PaperFixtures.peopleTable(spark), idx)
    val conf = ann.kbCS.get
      .filter(col("col_id") === 1 && col("annotation") === "city")
      .head().getAs[Double]("conf")
    assert(math.abs(conf - 0.6) < 1e-9) // fs, not fs*gs
  }

  test("query synth CS annotates by overlap with lake columns") {
    val q = LakeSchema.cellsOf(spark, Seq(
      TableData("Q", Seq("park"), Seq(true), Seq(
        Seq("Brands Park"), Seq("Kells Park"), Seq("Nowhere Park"), Seq("Union Park")))))
    val ann = QueryAnnotator.annotate(q, index)
    val rows = ann.synCS.get.filter(col("table_id") === "Q").collect()
      .map(r => r.getAs[String]("annotation") -> r.getAs[Double]("conf")).toMap
    // T1 parks: brands, kells -> 2/4; T2: kells, union -> 2/4; T3: union -> 1/4
    assert(math.abs(rows("T1#0") - 0.5) < 1e-9)
    assert(math.abs(rows("T2#0") - 0.5) < 1e-9)
    assert(math.abs(rows("T3#0") - 0.25) < 1e-9)
  }

  test("a query table identical to a lake table gets self conf 1 via the lake") {
    val q = LakeSchema.cellsOf(spark, Seq(
      TableData("T3", Seq("park", "film"), Seq(true, true), Seq(
        Seq("Union Park", "Black Panther"), Seq("Gill Park", "Wonder")))))
    val ann = QueryAnnotator.annotate(q, index)
    val conf = ann.synCS.get
      .filter(col("table_id") === "T3" && col("col_id") === 0 && col("annotation") === "T3#0")
      .head().getAs[Double]("conf")
    assert(conf === 1.0)
  }

  test("query synth RS annotates by value-pair overlap with lake FD pairs") {
    val q = LakeSchema.cellsOf(spark, Seq(
      TableData("Q", Seq("park", "film"), Seq(true, true), Seq(
        Seq("Brands Park", "Moana"), Seq("Kells Park", "Spider-Man")))))
    val ann = QueryAnnotator.annotate(q, index)
    val rows = ann.synRS.get
      .filter(col("table_id") === "Q" && col("col_a") === 0 && col("col_b") === 1)
      .collect().map(r => r.getAs[String]("annotation") -> r.getAs[Double]("conf")).toMap
    assert(math.abs(rows("T1#0#1") - 1.0) < 1e-9) // both pairs in T1
    assert(math.abs(rows("T2#0#1") - 0.5) < 1e-9) // kells only
    assert(!rows.contains("T3#0#1"))
  }

  test("queryTrees: BFS from the intent over RS edges") {
    val rs = Seq(("Q", 0, 1, "x", 1.0), ("Q", 1, 2, "y", 1.0), ("Q", 2, 1, "y", 1.0)).map(PairAnn.tupled)
    val ann = QueryAnnotation(None, None, None, Some(rs))
    val tree = QueryAnnotator.queryTrees(ann, Map("Q" -> 0)).head
    assert(tree.edges === Seq((0, 1), (1, 2)))
  }

  test("queryTrees: columns not reachable from the intent are excluded") {
    val rs = Seq(("Q", 0, 1, "x", 1.0), ("Q", 2, 3, "y", 1.0)).map(PairAnn.tupled)
    val ann = QueryAnnotation(None, None, None, Some(rs))
    val tree = QueryAnnotator.queryTrees(ann, Map("Q" -> 0)).head
    assert(tree.edges === Seq((0, 1)))
  }

  test("queryTrees: edges merge KB and synth relationship evidence") {
    val kbRs = Seq(("Q", 0, 1, "locatedin", 1.0)).map(PairAnn.tupled)
    val syRs = Seq(("Q", 1, 2, "T#0#1", 1.0)).map(PairAnn.tupled)
    val ann = QueryAnnotation(None, Some(kbRs), None, Some(syRs))
    val tree = QueryAnnotator.queryTrees(ann, Map("Q" -> 0)).head
    assert(tree.edges === Seq((0, 1), (1, 2)))
  }

  test("queryTrees: an intent with no relationships yields an empty tree") {
    val rs = Seq.empty[(String, Int, Int, String, Double)].map(PairAnn.tupled)
    val ann = QueryAnnotation(None, None, None, Some(rs))
    val tree = QueryAnnotator.queryTrees(ann, Map("Q" -> 5)).head
    assert(tree.intentCol === 5)
    assert(tree.edges.isEmpty)
  }

  test("queryTrees: children are visited in ascending column order") {
    val rs = Seq(("Q", 0, 3, "x", 1.0), ("Q", 0, 1, "y", 1.0), ("Q", 0, 2, "z", 1.0)).map(PairAnn.tupled)
    val ann = QueryAnnotation(None, None, None, Some(rs))
    val tree = QueryAnnotator.queryTrees(ann, Map("Q" -> 0)).head
    assert(tree.edges === Seq((0, 1), (0, 2), (0, 3)))
  }

  test("queryTrees handles multiple query tables independently") {
    val rs = Seq(("Q1", 0, 1, "x", 1.0), ("Q2", 2, 0, "y", 1.0)).map(PairAnn.tupled)
    val ann = QueryAnnotation(None, None, None, Some(rs))
    val trees = QueryAnnotator.queryTrees(ann, Map("Q1" -> 0, "Q2" -> 0))
      .map(t => t.tableId -> t.edges).toMap
    assert(trees("Q1") === Seq((0, 1)))
    assert(trees("Q2") === Seq((0, 2)))
  }
}
