package repro.kb

import org.scalatest.funsuite.AnyFunSuite

/** The synthetic world: hierarchy shape, entity populations, fact
  * functionality, determinism. Pure Scala — no Spark needed.
  */
class WorldSpec extends AnyFunSuite {
  import WorldSpec.predicatePairCounts

  lazy val world = new World(42L)

  test("every type's parent chain reaches the root") {
    world.allTypes.foreach { t =>
      val anc = world.selfAndAncestors(t)
      assert(anc.head === t)
      assert(world.typeParents(anc.last) === world.root)
    }
  }

  test("top-level types are exactly the direct children of the root") {
    val tops = world.allTypes.filter(t => world.typeParents(t) == world.root)
    assert(tops === Set("person", "place", "organization", "creativework",
                        "species", "event", "product"))
    tops.foreach(t => assert(world.topLevelOf(t) === t))
  }

  test("topLevelOf resolves leaf types") {
    assert(world.topLevelOf("city") === "place")
    assert(world.topLevelOf("musicalbum") === "creativework")
    assert(world.topLevelOf("athlete") === "person")
    assert(world.topLevelOf("sportsteam") === "organization")
  }

  test("selfAndAncestors is ordered leaf-to-top and excludes the root") {
    assert(world.selfAndAncestors("city") === List("city", "adminarea", "place"))
    assert(!world.selfAndAncestors("city").contains(world.root))
  }

  test("entity ids are unique and labels are non-empty lower-case") {
    assert(world.entities.map(_.id).distinct.size === world.entities.size)
    world.entities.foreach { e =>
      assert(e.label.nonEmpty)
      assert(e.label === e.label.toLowerCase)
    }
  }

  test("populations match the spec") {
    assert(world.byType("country").size === 60)
    assert(world.byType("city").size === 2400)
    assert(world.byType("park").size === 900)
    assert(world.byType("movie").size === 1800)
  }

  test("broad types accumulate more entities than their descendants") {
    val nPlace = world.byTypeTransitive("place").size
    val nCity = world.byTypeTransitive("city").size
    val nAdmin = world.byTypeTransitive("adminarea").size
    assert(nPlace > nAdmin)
    assert(nAdmin > nCity)
  }

  test("byTypeTransitive includes descendants") {
    val placeIds = world.byTypeTransitive("place").map(_.id).toSet
    world.byType("city").foreach(e => assert(placeIds.contains(e.id)))
    world.byType("park").foreach(e => assert(placeIds.contains(e.id)))
  }

  test("homographs exist: some label maps to entities of different top levels") {
    val multi = world.entities.groupBy(_.label).filter(_._2.size > 1)
    val crossTop = multi.values.filter(es =>
      es.map(e => world.topLevelOf(e.typeId)).distinct.size > 1)
    assert(crossTop.nonEmpty, "expected at least one cross-top-level homograph")
  }

  test("homograph count is bounded (at most the 40 album relabels)") {
    val albumLabels = world.byType("musicalbum").map(_.label).toSet
    val cityLabels = world.byType("city").map(_.label).toSet
    val shared = albumLabels.intersect(cityLabels)
    assert(shared.nonEmpty && shared.size <= 40)
  }

  test("facts reference existing entities with correctly typed subjects") {
    world.facts.take(2000).foreach { f =>
      assert(world.entitiesById.contains(f.subj))
      assert(world.entitiesById.contains(f.obj))
    }
  }

  test("every predicate is functional (one object per subject)") {
    world.facts.groupBy(f => (f.predicate, f.subj)).foreach { case (_, fs) =>
      assert(fs.map(_.obj).distinct.size === 1)
    }
  }

  test("objOf follows the fact index") {
    val park = world.byType("park").head
    val city = world.objOf("locatedin", park.id)
    assert(city.isDefined)
    assert(world.entitiesById(city.get).typeId === "city")
  }

  test("locatedin chains city -> state -> country") {
    val city = world.byType("city").head
    val state = world.objOf("locatedin", city.id).get
    assert(world.entitiesById(state).typeId === "state")
    val country = world.objOf("locatedin", state).get
    assert(world.entitiesById(country).typeId === "country")
  }

  test("every park has a supervisor and a city") {
    world.byType("park").take(50).foreach { p =>
      assert(world.objOf("ledby", p.id).isDefined)
      assert(world.objOf("locatedin", p.id).isDefined)
    }
  }

  test("species have counties via foundin") {
    (world.byType("bird") ++ world.byType("fish") ++ world.byType("tree"))
      .take(30).foreach { s =>
        val c = world.objOf("foundin", s.id)
        assert(c.isDefined)
        assert(world.entitiesById(c.get).typeId === "county")
      }
  }

  test("predicatePairCounts match the fact list") {
    assert(predicatePairCounts(world)("ledby") ===
      (world.byType("park").size + world.byType("city").size).toLong)
    assert(predicatePairCounts(world)("directedby") === world.byType("movie").size.toLong)
  }

  test("generation is deterministic in the seed") {
    val w2 = new World(42L)
    assert(w2.entities === world.entities)
    assert(w2.facts === world.facts)
  }

  test("different seeds give different worlds") {
    val w2 = new World(43L)
    assert(w2.entities !== world.entities)
  }

  test("alternate labels are variants of the canonical label") {
    val withAlt = world.entities.filter(_.altLabels.nonEmpty)
    assert(withAlt.nonEmpty)
    withAlt.take(20).foreach { e =>
      assert(e.altLabels.head === e.label.replace(" ", ""))
    }
  }
}

object WorldSpec {

  /** Number of entity pairs per predicate (the Eq. 4 tie-break's count). */
  def predicatePairCounts(world: World): Map[String, Long] =
    world.facts.groupBy(_.predicate).map { case (p, fs) => p -> fs.size.toLong }
}
