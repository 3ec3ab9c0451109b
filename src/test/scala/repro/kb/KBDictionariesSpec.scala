package repro.kb

import org.apache.spark.sql.functions._
import repro.SparkSpec

/** The four KB dictionaries (Sec. 7.1): hierarchy expansion, granularity
  * scores (Eq. 2, pinned to Ex. 14), subsampling and degradation knobs.
  */
class KBDictionariesSpec extends SparkSpec {

  lazy val world = new World(42L)
  lazy val kb: KBIndex = KBDictionaries.build(spark, world)

  /** gs per type, as the type dictionary's rows carry it. */
  lazy val typeGs: Map[String, Double] = kb.typeRows.map(r => r._2 -> r._4).toMap

  // ------------------------------------------------------- granularity score

  test("Ex. 14: gs(place) with 6M entities is about 0.14") {
    assert(math.abs(KBDictionaries.granularityScore(6000000L) - 0.1475) < 0.01)
  }

  test("Ex. 14: gs(city) with 42,000 entities is about 0.22") {
    assert(math.abs(KBDictionaries.granularityScore(42000L) - 0.216) < 0.01)
  }

  test("gs is 1 for rare types (fewer than 10 entities)") {
    assert(KBDictionaries.granularityScore(1L) === 1.0)
    assert(KBDictionaries.granularityScore(9L) === 1.0)
  }

  test("gs is in (0, 1] and decreases with entity count") {
    val counts = Seq(1L, 10L, 100L, 10000L, 1000000L)
    val scores = counts.map(KBDictionaries.granularityScore)
    scores.foreach(s => assert(s > 0 && s <= 1))
    assert(scores === scores.sorted.reverse)
  }

  // ------------------------------------------------------------ dictionaries

  test("entity dictionary includes canonical and alternate labels") {
    val withAlt = world.entities.find(_.altLabels.nonEmpty).get
    val rows = kb.labels.filter(col("entity_id") === withAlt.id).collect()
    val ls = rows.map(_.getString(0)).toSet
    assert(ls === (withAlt.altLabels :+ withAlt.label).toSet)
  }

  test("type dictionary expands a city label to city, adminarea and place") {
    val city = world.byType("city").find(e => world.entities.count(_.label == e.label) == 1).get
    val types = kb.typeDict.filter(col("label") === city.label)
      .select("type_id").collect().map(_.getString(0)).toSet
    assert(types === Set("city", "adminarea", "place"))
  }

  test("type dictionary rows carry the majority top level of their type") {
    val bad = kb.typeDict
      .filter(col("type_id") === "city" && col("top_level") =!= "place")
    assert(bad.count() === 0)
  }

  test("gs of a descendant type is at least that of its ancestor") {
    assert(typeGs("city") >= typeGs("adminarea"))
    assert(typeGs("adminarea") >= typeGs("place"))
    assert(typeGs("park") >= typeGs("place"))
  }

  test("typeGs is consistent with topLevelCounts") {
    val nPlace = kb.topLevelCounts("place")
    assert(math.abs(typeGs("place") - KBDictionaries.granularityScore(nPlace)) < 1e-12)
  }

  test("topLevelCounts covers all seven top-level types") {
    assert(kb.topLevelCounts.keySet ===
      Set("person", "place", "organization", "creativework", "species", "event", "product"))
  }

  test("relationship dictionary contains a known fact with its labels") {
    val park = world.byType("park").head
    val city = world.entitiesById(world.objOf("locatedin", park.id).get)
    val n = kb.relDict.filter(
      col("label_subj") === park.label && col("label_obj") === city.label &&
      col("predicate") === "locatedin").count()
    assert(n === 1)
  }

  test("relationship dictionary pred_pairs equals the world pair count") {
    val row = kb.relDict.filter(col("predicate") === "directedby")
      .select("pred_pairs").head()
    assert(row.getLong(0) === WorldSpec.predicatePairCounts(world)("directedby"))
  }

  test("coveredLabels is the distinct label set") {
    assert(kb.coveredLabels.count() === kb.labels.select("label").distinct().count())
  }

  test("homograph labels map to multiple types in the type dictionary") {
    val albumCity = world.byType("musicalbum").map(_.label)
      .find(l => world.byType("city").exists(_.label == l)).get
    val tops = kb.typeDict.filter(col("label") === albumCity)
      .select("top_level").distinct().collect().map(_.getString(0)).toSet
    assert(tops === Set("place", "creativework"))
  }

  /** The view [[KBView.of]] builds from the collected DataFrame forms of `k`. */
  private def viewFromFrames(k: KBIndex): KBView = {
    val covered = k.coveredLabels.collect().map(_.getString(0)).toSeq
    assert(covered.toSet === k.labels.select("label").collect().map(_.getString(0)).toSet)
    KBView.of(
      k.typeDict.collect().toSeq.map(r => (r.getString(0), r.getString(1), r.getString(2), r.getDouble(3))),
      k.relDict.collect().toSeq.map(r => (r.getString(0), r.getString(1), r.getString(2), r.getLong(3))),
      covered, k.topLevelCounts)
  }

  for ((name, build) <- Seq[(String, () => KBIndex)](
         "the synthetic world" -> (() => kb),
         "the Birthplace fixture" -> (() => repro.core.PaperFixtures.birthplaceKb(spark))))
    test(s"$name: the DataFrame forms give the view the rows give") {
      val k = build()
      val (got, want) = (viewFromFrames(k), k.view)
      assert(want.types.nonEmpty && want.covered.nonEmpty && want.predicates.nonEmpty)
      assert(got.types === want.types)
      assert(got.covered === want.covered)
      assert(got.predicates === want.predicates)
      assert(got.topLevelCounts === want.topLevelCounts)
    }

  // -------------------------------------------------------- degradation knobs

  test("entityFraction subsampling shrinks the dictionaries proportionally") {
    val half = KBDictionaries.build(spark, world, KBConfig(entityFraction = 0.5))
    val full = kb.labels.count().toDouble
    val sub = half.labels.count().toDouble
    assert(sub > 0.4 * full && sub < 0.6 * full, s"got $sub of $full")
  }

  test("entityFraction 0 gives an empty KB") {
    val empty = KBDictionaries.build(spark, world, KBConfig(entityFraction = 0.0))
    assert(empty.labels.count() === 0)
    assert(empty.relDict.count() === 0)
  }

  test("keepTopLevels drops entities of other domains") {
    val ppl = KBDictionaries.build(spark, world,
      KBConfig(keepTopLevels = Some(Set("person"))))
    val tops = ppl.typeDict.select("top_level").distinct()
      .collect().map(_.getString(0)).toSet
    assert(tops === Set("person"))
  }

  test("keepPredicates restricts the relationship dictionary") {
    val only = KBDictionaries.build(spark, world,
      KBConfig(keepPredicates = Some(Set("bornin"))))
    val preds = only.relDict.select("predicate").distinct()
      .collect().map(_.getString(0)).toSet
    assert(preds === Set("bornin"))
  }

  test("typeNoise remaps a fraction of direct types") {
    val noisy = KBDictionaries.build(spark, world, KBConfig(typeNoise = 0.5))
    // A noisy KB must disagree with the clean KB on many (label, type) rows.
    val clean = kb.typeDict.select("label", "type_id")
    val diff = noisy.typeDict.select("label", "type_id").exceptAll(clean).count()
    assert(diff > 1000, s"only $diff rows changed")
  }

  test("subsampling is deterministic in the seed") {
    val a = KBDictionaries.build(spark, world, KBConfig(entityFraction = 0.5, sampleSeed = 5))
    val b = KBDictionaries.build(spark, world, KBConfig(entityFraction = 0.5, sampleSeed = 5))
    assert(a.labels.count() === b.labels.count())
    assert(a.labels.exceptAll(b.labels).count() === 0)
  }
}
