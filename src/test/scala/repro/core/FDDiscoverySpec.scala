package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.lake.LakeSchema
import repro.lake.LakeSchema.TableData

/** Unary FD mining (Sec. 7.2, FDEP-lite), oracle-checked. */
class FDDiscoverySpec extends SparkSpec {

  private def fds(tables: TableData*): Set[(String, Int, Int)] = {
    val cells = LakeSchema.cellsOf(spark, tables)
    FDDiscovery.unaryFds(LakeSchema.valuePairs(cells))
      .collect().map(r => (r.getString(0), r.getInt(1), r.getInt(2))).toSet
  }

  test("a functional column pair is found in the determining direction") {
    val t = TableData("t", Seq("park", "city"), Seq(true, true), Seq(
      Seq("a park", "boston"), Seq("b park", "boston"), Seq("c park", "dallas")))
    assert(fds(t) === Set(("t", 0, 1))) // park -> city, but not city -> park
  }

  test("a bijective pair yields FDs in both directions") {
    val t = TableData("t", Seq("a", "b"), Seq(true, true), Seq(
      Seq("x", "1x"), Seq("y", "1y"), Seq("z", "1z")))
    assert(fds(t) === Set(("t", 0, 1), ("t", 1, 0)))
  }

  test("an FD violation is rejected") {
    val t = TableData("t", Seq("a", "b"), Seq(true, true), Seq(
      Seq("x", "p"), Seq("x", "q")))
    assert(fds(t) === Set(("t", 1, 0))) // b -> a holds, a -> b does not
  }

  test("duplicate rows do not break an FD") {
    val t = TableData("t", Seq("a", "b"), Seq(true, true), Seq(
      Seq("x", "p"), Seq("x", "p"), Seq("y", "q")))
    assert(fds(t) === Set(("t", 0, 1), ("t", 1, 0)))
  }

  test("null-like values are ignored when checking FDs") {
    val t = TableData("t", Seq("a", "b"), Seq(true, true), Seq(
      Seq("x", "p"), Seq("x", null), Seq("x", "NaN"), Seq("y", "q")))
    assert(fds(t).contains(("t", 0, 1)))
  }

  test("case and whitespace variants of the same value do not violate an FD") {
    val t = TableData("t", Seq("a", "b"), Seq(true, true), Seq(
      Seq("x", "Boston"), Seq("X ", " boston"), Seq("y", "dallas")))
    assert(fds(t).contains(("t", 0, 1)))
  }

  test("FDs are discovered per table, independently") {
    val t1 = TableData("t1", Seq("a", "b"), Seq(true, true), Seq(
      Seq("x", "p"), Seq("y", "q")))
    val t2 = TableData("t2", Seq("a", "b"), Seq(true, true), Seq(
      Seq("x", "p"), Seq("x", "q")))
    val got = fds(t1, t2)
    assert(got.contains(("t1", 0, 1)))
    assert(!got.contains(("t2", 0, 1)))
  }

  test("three columns: all qualifying ordered pairs are checked") {
    val t = TableData("t", Seq("a", "b", "c"), Seq(true, true, true), Seq(
      Seq("x", "p", "m"), Seq("y", "p", "m"), Seq("z", "q", "m")))
    val got = fds(t)
    assert(got.contains(("t", 0, 1))) // a -> b
    assert(got.contains(("t", 0, 2))) // a -> c (c constant)
    assert(got.contains(("t", 1, 2))) // b -> c
    assert(!got.contains(("t", 1, 0)))
  }

  test("meaningfulPairs contains both orientations of each FD") {
    val pairs = TableKernel.meaningfulPairs(Seq((0, 1))).toSet
    assert(pairs === Set((0, 1), (1, 0)))
  }

  test("meaningfulPairs de-duplicates bijective FDs") {
    assert(TableKernel.meaningfulPairs(Seq((0, 1), (1, 0))).size === 2)
  }

  test("unary FDs match a DuckDB HAVING check") {
    val cells = LakeSchema.cellsOf(spark, Seq(
      TableData("t", Seq("a", "b", "c"), Seq(true, true, true), Seq(
        Seq("x", "p", "1"), Seq("y", "p", "2"), Seq("y", "p", "3"), Seq("z", "q", "1")))))
    val got = FDDiscovery.unaryFds(LakeSchema.valuePairs(cells))
      .select(col("table_id"), col("col_det").cast("string").as("col_det"),
              col("col_dep").cast("string").as("col_dep"))
    Oracle.assertEquivalent(got,
      """WITH sc AS (
        |  SELECT table_id, col_id, row_id, lower(trim(value)) AS value FROM cells
        |  WHERE value IS NOT NULL
        |), pairs AS (
        |  SELECT DISTINCT a.table_id, a.col_id AS ca, b.col_id AS cb,
        |         a.value AS va, b.value AS vb
        |  FROM sc a JOIN sc b
        |    ON a.table_id = b.table_id AND a.row_id = b.row_id AND a.col_id <> b.col_id
        |), per_det AS (
        |  SELECT table_id, ca, cb, va, COUNT(DISTINCT vb) AS n
        |  FROM pairs GROUP BY table_id, ca, cb, va
        |)
        |SELECT table_id, ca AS col_det, cb AS col_dep
        |FROM per_det GROUP BY table_id, ca, cb
        |HAVING MAX(n) = 1""".stripMargin,
      "cells" -> cells)
  }
}
