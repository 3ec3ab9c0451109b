package repro.lake

import org.apache.spark.sql.functions._
import org.scalacheck.{Gen, Prop, Test => ScalaCheckTest}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty
import repro.{Oracle, SparkSpec}
import repro.lake.LakeSchema.TableData

/** Cells representation and its derived relations, cross-checked against
  * DuckDB SQL via the oracle.
  */
class LakeSchemaSpec extends SparkSpec {

  private def fixtureCells = LakeSchema.cellsOf(spark, Seq(
    TableData("t1", Seq("park", "city", "area"), Seq(true, true, false), Seq(
      Seq("Brands Park", "Boston", "10.5"),
      Seq("Kells Park", "Boston", "3.2"),
      Seq("Union Park", "Dallas", "7.7"),
      Seq(" Union Park ", "dallas", "7.7"), // normalizes to a duplicate
      Seq(null, "NaN", null),
    )),
    TableData("t2", Seq("person", "city"), Seq(true, true), Seq(
      Seq("Ada", "Boston"),
      Seq("Bob", "-"),
    )),
  ))

  test("normalizeValue lower-cases, trims and drops null tokens") {
    assert(LakeSchema.normalizeValue("  Boston ") === Some("boston"))
    assert(LakeSchema.normalizeValue(null) === None)
    assert(LakeSchema.normalizeValue("NaN") === None)
    assert(LakeSchema.normalizeValue("null") === None)
    assert(LakeSchema.normalizeValue("N/A") === None)
    assert(LakeSchema.normalizeValue("-") === None)
    assert(LakeSchema.normalizeValue("") === None)
    assert(LakeSchema.normalizeValue("x") === Some("x"))
  }

  // Pieces a cell is glued from: Spark's trim strips only U+0020, so tabs,
  // newlines and non-breaking spaces at the edges must survive.
  private val piece = Gen.oneOf(
    Gen.oneOf(" ", "  ", "\t", "\n", "\r", "\u00a0"),
    Gen.oneOf("null", "NULL", "NaN", "None", "n/A", "-", ""),
    Gen.oneOf("Boston", "kELLS park", "ÉCOLE", "Straße", "ΟΔΟΣ", "x1"),
    Gen.alphaNumStr.map(_.take(6)))
  private val cell: Gen[String] = Gen.frequency(
    1 -> Gen.const(null),
    12 -> Gen.choose(0, 4).flatMap(Gen.listOfN(_, piece)).map(_.mkString))
  private def show(v: String): String =
    if (v == null) "null"
    else v.flatMap(c => if (c.isWhitespace || c.isSpaceChar) f"\\u${c.toInt}%04x" else c.toString)

  /** Checks `prop` on 20 cases from seed 101. */
  private def check(prop: Prop): Unit = {
    val res = ScalaCheckTest.check(
      ScalaCheckTest.Parameters.default.withMinSuccessfulTests(20).withInitialSeed(Seed(101L)), prop)
    assert(res.passed, Pretty.pretty(res))
  }

  test("normalizeValue agrees with stringCells on whitespace, case and null tokens") {
    val prop = Prop.forAll(Gen.listOfN(48, cell)) { values =>
      val cells = LakeSchema.cellsOf(spark, Seq(
        TableData("t", Seq("v"), Seq(true), values.map(Seq(_)))))
      val bySpark = LakeSchema.stringCells(cells).select("row_id", "value").collect()
        .map(r => r.getLong(0).toInt -> r.getString(1)).toMap
      Prop.all(values.indices.map { i =>
        (LakeSchema.normalizeValue(values(i)) == bySpark.get(i)) :|
          s"cell ${show(values(i))}: normalizeValue ${LakeSchema.normalizeValue(values(i)).map(show)}, " +
          s"stringCells ${bySpark.get(i).map(show)}"
      }: _*)
    }
    check(prop)
  }

  test("stringCells agrees with Spark's lower(trim(value)) and the null-token filter") {
    // An independent reference: Spark's own case mapping and trim, and the
    // null tokens written out here, so a word-final Σ and the U+0020-only
    // trim stay checked against Spark, not against normalizeValue itself.
    val nullTokens = Set("", "null", "nan", "none", "n/a", "-")
    val prop = Prop.forAll(Gen.listOfN(48, cell)) { values =>
      val cells = LakeSchema.cellsOf(spark, Seq(
        TableData("t", Seq("v"), Seq(true), values.map(Seq(_)))))
      val got = LakeSchema.stringCells(cells).select("row_id", "value").collect()
        .map(r => r.getLong(0).toInt -> r.getString(1)).toMap
      val bySpark = cells.filter(col("is_string") && col("value").isNotNull)
        .select(col("row_id"), lower(trim(col("value")))).collect()
        .map(r => r.getLong(0).toInt -> r.getString(1))
        .filterNot { case (_, v) => nullTokens.contains(v) }.toMap
      Prop.all(values.indices.map { i =>
        (got.get(i) == bySpark.get(i)) :|
          s"cell ${show(values(i))}: stringCells ${got.get(i).map(show)}, " +
          s"lower(trim(..)) ${bySpark.get(i).map(show)}"
      }: _*)
    }
    check(prop)
  }

  test("cellsOf emits one row per cell") {
    assert(fixtureCells.count() === 5 * 3 + 2 * 2)
  }

  test("cellsOf rejects ragged rows") {
    assertThrows[IllegalArgumentException] {
      TableData("bad", Seq("a", "b"), Seq(true, true), Seq(Seq("x")))
    }
  }

  test("cellsOf rejects mismatched isString length") {
    assertThrows[IllegalArgumentException] {
      TableData("bad", Seq("a", "b"), Seq(true), Seq(Seq("x", "y")))
    }
  }

  test("stringCells keeps only normalized, non-null string-column values") {
    val sc = LakeSchema.stringCells(fixtureCells)
    assert(sc.filter(!col("is_string")).count() === 0)
    val vals = sc.select("value").collect().map(_.getString(0))
    assert(vals.forall(v => v == v.toLowerCase && v == v.trim && v.nonEmpty))
    assert(!vals.contains("nan") && !vals.contains("-"))
  }

  test("distinctColumnValues de-duplicates normalized values") {
    val d = LakeSchema.distinctColumnValues(fixtureCells)
    val t1c0 = d.filter(col("table_id") === "t1" && col("col_id") === 0)
      .collect().map(_.getString(2)).toSet
    assert(t1c0 === Set("brands park", "kells park", "union park"))
  }

  test("distinctValueCounts matches DuckDB") {
    import spark.implicits._
    // Per table, as the kernel counts them (the Eq. 5 denominator).
    val got = LakeSchema.perTable(fixtureCells) { (t, tc) =>
      tc.colVals.toSeq.map { case (c, vs) => (t, c, vs.size.toLong) }
    }.toDF("table_id", "col_id", "n_distinct")
      .select(col("table_id"), col("col_id").cast("string").as("col_id"),
              col("n_distinct").cast("string").as("n_distinct"))
    Oracle.assertEquivalent(got,
      """SELECT table_id, col_id,
        |       CAST(COUNT(DISTINCT lower(trim(value))) AS VARCHAR) AS n_distinct
        |FROM cells
        |WHERE is_string = 'true' AND value IS NOT NULL
        |  AND lower(trim(value)) NOT IN ('', 'null', 'nan', 'none', 'n/a', '-')
        |GROUP BY table_id, col_id""".stripMargin,
      "cells" -> fixtureCells)
  }

  test("valuePairs matches a DuckDB self-join") {
    val got = LakeSchema.valuePairs(fixtureCells)
      .select(col("table_id"), col("col_a").cast("string").as("col_a"),
              col("col_b").cast("string").as("col_b"), col("value_a"), col("value_b"))
    Oracle.assertEquivalent(got,
      """WITH sc AS (
        |  SELECT table_id, col_id, row_id, lower(trim(value)) AS value
        |  FROM cells
        |  WHERE is_string = 'true' AND value IS NOT NULL
        |    AND lower(trim(value)) NOT IN ('', 'null', 'nan', 'none', 'n/a', '-')
        |)
        |SELECT DISTINCT a.table_id, a.col_id AS col_a, b.col_id AS col_b,
        |       a.value AS value_a, b.value AS value_b
        |FROM sc a JOIN sc b
        |  ON a.table_id = b.table_id AND a.row_id = b.row_id AND a.col_id <> b.col_id""".stripMargin,
      "cells" -> fixtureCells)
  }

  test("valuePairs emits both orientations") {
    val vp = LakeSchema.valuePairs(fixtureCells)
    val fwd = vp.filter(col("table_id") === "t2" && col("col_a") === 0 &&
                        col("value_a") === "ada").count()
    val bwd = vp.filter(col("table_id") === "t2" && col("col_a") === 1 &&
                        col("value_b") === "ada").count()
    assert(fwd === 1) // (ada, boston); (bob, -) dropped via null token
    assert(bwd === 1) // (boston, ada)
  }

  test("valuePairs never pairs a column with itself") {
    assert(LakeSchema.valuePairs(fixtureCells).filter(col("col_a") === col("col_b")).count() === 0)
  }

  test("valuePairs drops rows whose partner value is null-like") {
    val vp = LakeSchema.valuePairs(fixtureCells).filter(col("table_id") === "t2")
    assert(vp.count() === 2) // only (ada,boston) and (boston,ada)
  }

  test("columnProfile lists every column once") {
    val prof = LakeSchema.columnProfile(fixtureCells).collect()
    assert(prof.length === 5)
    assert(prof.count(r => !r.getBoolean(3)) === 1)
  }
}
