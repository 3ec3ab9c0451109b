package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.kb.KBIndex
import repro.lake.LakeSchema
import repro.lake.LakeSchema.TableData

/** KB relationship semantics (Sec. 4.3, Eq. 4), pinned to Ex. 16 and
  * oracle-checked.
  */
class RelationshipSemanticsSpec extends SparkSpec {

  lazy val kb: KBIndex = PaperFixtures.birthplaceKb(spark)
  lazy val people = PaperFixtures.peopleTable(spark)
  lazy val peopleCS = ColumnSemantics.compute(people, kb, isQuery = false)

  private def rsOf(cells: DataFrame, kb: KBIndex, cs: DataFrame): DataFrame =
    RelationshipSemantics.computeFromPairs(LakeSchema.valuePairs(cells), kb, cs)

  test("Ex. 16: RS(Person, Birthplace) = birthplace with confidence 1.0") {
    val rs = rsOf(people, kb, peopleCS)
      .filter(col("col_a") === 0 && col("col_b") === 1).head()
    assert(rs.getAs[String]("predicate") === "birthplace")
    assert(math.abs(rs.getAs[Double]("conf") - 1.0) < 1e-9)
  }

  test("direction matters: no predicate at the (Birthplace, Person) orientation") {
    val rs = rsOf(people, kb, peopleCS)
      .filter(col("col_a") === 1 && col("col_b") === 0)
    assert(rs.count() === 0)
  }

  test("Eq. 4 denominator counts pairs with both values in the KB") {
    // 4 predicate pairs out of 5 KB-covered pairs -> conf 0.8; the pair with
    // an out-of-KB person does not enter the denominator.
    val cells = LakeSchema.cellsOf(spark, Seq(
      TableData("t", Seq("p", "b"), Seq(true, true), Seq(
        Seq("ada", "boston"), Seq("bob", "dallas"), Seq("cady", "london"),
        Seq("dan", "texas"),
        Seq("eve", "texas"),        // both in KB, but no such fact
        Seq("unknown", "boston"),   // subject not in KB: excluded entirely
      ))))
    val cs = ColumnSemantics.compute(cells, kb, isQuery = false)
    val rs = rsOf(cells, kb, cs)
      .filter(col("col_a") === 0 && col("col_b") === 1).head()
    assert(math.abs(rs.getAs[Double]("conf") - 4.0 / 5.0) < 1e-9)
  }

  test("only the maximum-scoring predicate is kept per ordered pair") {
    val kb2 = PaperFixtures.birthplaceKb(spark, relRows = Seq(
      ("ada", "boston", "birthplace", 5L),
      ("bob", "dallas", "birthplace", 5L),
      ("ada", "boston", "worksin", 9L), // only 1 of 2 pairs -> loses
    ))
    val cells = LakeSchema.cellsOf(spark, Seq(
      TableData("t", Seq("p", "b"), Seq(true, true), Seq(
        Seq("ada", "boston"), Seq("bob", "dallas")))))
    val cs = ColumnSemantics.compute(cells, kb2, isQuery = false)
    val rows = rsOf(cells, kb2, cs)
      .filter(col("col_a") === 0 && col("col_b") === 1).collect()
    assert(rows.length === 1)
    assert(rows.head.getAs[String]("predicate") === "birthplace")
  }

  test("footnote 4: score ties go to the predicate with fewer KB pairs") {
    val kb2 = PaperFixtures.birthplaceKb(spark, relRows = Seq(
      ("ada", "boston", "common", 100L),
      ("ada", "boston", "rare", 3L),
    ))
    val cells = LakeSchema.cellsOf(spark, Seq(
      TableData("t", Seq("p", "b"), Seq(true, true), Seq(Seq("ada", "boston")))))
    val cs = ColumnSemantics.compute(cells, kb2, isQuery = false)
    val rs = rsOf(cells, kb2, cs).head()
    assert(rs.getAs[String]("predicate") === "rare")
  }

  test("pairs involving a column without CS are skipped") {
    val cells = LakeSchema.cellsOf(spark, Seq(
      TableData("t", Seq("p", "junk"), Seq(true, true), Seq(
        Seq("ada", "zz1"), Seq("bob", "zz2")))))
    val cs = ColumnSemantics.compute(cells, kb, isQuery = false)
    assert(rsOf(cells, kb, cs).count() === 0)
  }

  test("duplicate rows count once (Eq. 4 is over unique value pairs)") {
    val cells = LakeSchema.cellsOf(spark, Seq(
      TableData("t", Seq("p", "b"), Seq(true, true), Seq(
        Seq("ada", "boston"), Seq("ada", "boston"), Seq("eve", "texas")))))
    val cs = ColumnSemantics.compute(cells, kb, isQuery = false)
    val rs = rsOf(cells, kb, cs)
      .filter(col("col_a") === 0 && col("col_b") === 1).head()
    // 1 predicate pair of 2 unique KB pairs
    assert(math.abs(rs.getAs[Double]("conf") - 0.5) < 1e-9)
  }

  test("three-column tables score every ordered CS pair") {
    val cells = LakeSchema.cellsOf(spark, Seq(
      TableData("t", Seq("p", "b", "b2"), Seq(true, true, true), Seq(
        Seq("ada", "boston", "dallas"), Seq("bob", "dallas", "boston")))))
    val cs = ColumnSemantics.compute(cells, kb, isQuery = false)
    val pairs = rsOf(cells, kb, cs)
      .select("col_a", "col_b").collect().map(r => (r.getInt(0), r.getInt(1))).toSet
    assert(pairs === Set((0, 1))) // ada->boston, bob->dallas are facts; others not
  }

  test("Eq. 4 numerator and denominator match DuckDB") {
    val got = rsOf(people, kb, peopleCS)
      .select(col("col_a").cast("string").as("col_a"),
              col("col_b").cast("string").as("col_b"),
              col("predicate"), format_number(col("conf"), 4).as("conf"))
    Oracle.assertEquivalent(got,
      """WITH pairs AS (
        |  SELECT DISTINCT a.col_id AS ca, b.col_id AS cb,
        |         lower(trim(a.value)) AS va, lower(trim(b.value)) AS vb
        |  FROM cells a JOIN cells b
        |    ON a.table_id = b.table_id AND a.row_id = b.row_id AND a.col_id <> b.col_id
        |), kbp AS (
        |  SELECT * FROM pairs
        |  WHERE va IN (SELECT label FROM labels) AND vb IN (SELECT label FROM labels)
        |), denom AS (
        |  SELECT ca, cb, COUNT(*) AS n FROM kbp GROUP BY ca, cb
        |), num AS (
        |  SELECT p.ca, p.cb, r.predicate, COUNT(*) AS n
        |  FROM kbp p JOIN reldict r ON r.label_subj = p.va AND r.label_obj = p.vb
        |  GROUP BY p.ca, p.cb, r.predicate
        |)
        |SELECT num.ca AS col_a, num.cb AS col_b, num.predicate,
        |       printf('%.4f', num.n * 1.0 / denom.n) AS conf
        |FROM num JOIN denom ON num.ca = denom.ca AND num.cb = denom.cb""".stripMargin,
      "cells" -> people, "labels" -> kb.labels, "reldict" -> kb.relDict)
  }
}
