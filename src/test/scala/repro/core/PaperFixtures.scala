package repro.core

import org.apache.spark.sql.SparkSession
import repro.kb.KBIndex
import repro.lake.LakeSchema
import repro.lake.LakeSchema.TableData

/** Hand-built fixtures pinning the paper's worked examples.
  *
  * The "birthplaces" KB reproduces Examples 12–16: five values in the
  * Birthplace column of Fig. 1(c) — 3 cities, 1 state, 1 plain
  * administrative area — with Boston also a music album (the homograph), and
  * a `birthplace` predicate relating each person to their city.
  */
object PaperFixtures {

  val gsFix: Map[String, Double] = Map(
    "place" -> 0.14, "adminarea" -> 0.17, "city" -> 0.22, "state" -> 0.35,
    "creativework" -> 0.10, "musicalbum" -> 0.30, "person" -> 0.20)

  /** The Birthplace example's `birthplace` facts: each person to their city. */
  val birthplaceFacts: Seq[(String, String, String, Long)] =
    Seq("ada" -> "boston", "bob" -> "dallas", "cady" -> "london",
        "dan" -> "texas", "eve" -> "barnet").map { case (p, b) => (p, b, "birthplace", 5L) }

  /** KB for the Birthplace example. All labels covered; Boston is a homograph
    * (city and music album).
    *
    * @param relRows the relationship dictionary, the Birthplace facts unless
    *                a test swaps in its own
    */
  def birthplaceKb(spark: SparkSession,
                   relRows: Seq[(String, String, String, Long)] = birthplaceFacts): KBIndex = {
    val typeRows: Seq[(String, String, String, Double)] =
      Seq("boston", "dallas", "london").flatMap { c =>
        Seq((c, "city", "place", gsFix("city")),
            (c, "adminarea", "place", gsFix("adminarea")),
            (c, "place", "place", gsFix("place")))
      } ++ Seq(
        ("texas", "state", "place", gsFix("state")),
        ("texas", "adminarea", "place", gsFix("adminarea")),
        ("texas", "place", "place", gsFix("place")),
        ("barnet", "adminarea", "place", gsFix("adminarea")),
        ("barnet", "place", "place", gsFix("place")),
        ("boston", "musicalbum", "creativework", gsFix("musicalbum")),
        ("boston", "creativework", "creativework", gsFix("creativework")),
      ) ++ Seq("ada", "bob", "cady", "dan", "eve").map { p =>
        (p, "person", "person", gsFix("person"))
      }
    val labels = typeRows.map(_._1).distinct.zipWithIndex.map { case (l, i) => (l, i.toLong) }

    new KBIndex(
      spark, labels, typeRows, relRows,
      topLevelCounts = Map("place" -> 6000000L, "creativework" -> 7000000L,
                           "person" -> 1000000L))
  }

  /** Fig. 1(c): the famous-people table (Person, Birthplace). */
  def peopleTable(spark: SparkSession) = LakeSchema.cellsOf(spark, Seq(
    TableData("people", Seq("person", "birthplace"), Seq(true, true), Seq(
      Seq("Ada", "Boston"),
      Seq("Bob", "Dallas"),
      Seq("Cady", "London"),
      Seq("Dan", "Texas"),
      Seq("Eve", "Barnet"),
    ))))

  /** Fig. 2: the three parks-and-films tables, reverse-engineered from the
    * Fig. 5 dictionary scores (see SynthesizedKBSpec for the derivation).
    * All film values are distinct per park, so park -> film is an FD.
    */
  def fig2Tables(spark: SparkSession) = LakeSchema.cellsOf(spark, Seq(
    TableData("T1", Seq("park", "film"), Seq(true, true), Seq(
      Seq("Brands Park", "Moana"),
      Seq("Kells Park", "Spider-Man"),
      Seq("Eckhart Park", "Avengers"),
    )),
    TableData("T2", Seq("park", "film"), Seq(true, true), Seq(
      Seq("Kells Park", "Spider-Man"),
      Seq("Eckhart Park", "Avengers"),
      Seq("Union Park", "Black Panther"),
      Seq("Chopin Park", "Trolls"),
      Seq("Gompers Park", "Coco"),
    )),
    TableData("T3", Seq("park", "film"), Seq(true, true), Seq(
      Seq("Union Park", "Black Panther"),
      Seq("Gill Park", "Wonder"),
    )),
  ))
}
