package repro.kb

import scala.collection.mutable
import scala.util.Random

/** A typed entity of the synthetic knowledge base.
  *
  * @param id        stable numeric id
  * @param typeId    the *direct* (most specific) type of the entity
  * @param label     canonical (already lower-case) label
  * @param altLabels alternate names (YAGO's rdfs:label / altLabel analogue)
  */
final case class Entity(id: Long, typeId: String, label: String, altLabels: Seq[String])

/** A directed binary fact: (subject entity) —predicate→ (object entity). */
final case class Fact(subj: Long, predicate: String, obj: Long)

/** Deterministic synthetic world standing in for YAGO 4.
  *
  * SANTOS consumes a KB only through four dictionaries (entity labels, entity
  * types + per-type entity counts, a single-rooted type hierarchy, and
  * entity-pair predicates). This world provides exactly that interface with:
  *
  *  - a 3-level single-rooted hierarchy whose top-level types (direct children
  *    of the root) are semantically disjoint, as YAGO's are (Sec. 4.1);
  *  - skewed per-type entity populations so the granularity score of Eq. (2)
  *    discriminates specific types from broad ones (Ex. 14);
  *  - functional predicates between entity types (locatedIn, bornIn, ledBy, …)
  *    so lake tables generated from the world exhibit the unary FDs the
  *    synthesized KB mines (Sec. 7.2);
  *  - deliberate homographs (a few music albums share city labels), mirroring
  *    YAGO's "Boston" city-vs-album ambiguity (Ex. 12).
  *
  * Everything is generated on the driver (tens of thousands of rows) and is a
  * pure function of `seed`.
  */
final class World(val seed: Long = 42L) extends Serializable {

  /** Root of the type hierarchy (never used as an annotation, Sec. 4.1). */
  val root: String = "thing"

  /** type -> parent type. Top-level types have parent == root. */
  val typeParents: Map[String, String] = Map(
    // top level
    "person" -> root, "place" -> root, "organization" -> root,
    "creativework" -> root, "species" -> root, "event" -> root, "product" -> root,
    // person
    "politician" -> "person", "scientist" -> "person",
    "athlete" -> "person", "filmmaker" -> "person",
    // place
    "adminarea" -> "place", "country" -> "adminarea", "state" -> "adminarea",
    "city" -> "adminarea", "county" -> "adminarea",
    "park" -> "place", "mountain" -> "place", "river" -> "place",
    // organization
    "company" -> "organization", "school" -> "organization",
    "hospital" -> "organization", "sportsteam" -> "organization",
    // creative work
    "movie" -> "creativework", "musicalbum" -> "creativework", "book" -> "creativework",
    // species
    "bird" -> "species", "fish" -> "species", "tree" -> "species",
    // event / product
    "festival" -> "event", "vehicle" -> "product",
  )

  /** All type ids (excluding the root). */
  val allTypes: Set[String] = typeParents.keySet

  /** Ancestors of `t` from itself up to (excluding) the root. */
  def selfAndAncestors(t: String): List[String] = {
    val b = mutable.ListBuffer[String]()
    var cur = t
    while (cur != root) { b += cur; cur = typeParents(cur) }
    b.toList
  }

  /** The top-level ancestor (direct child of the root) of type `t`. */
  def topLevelOf(t: String): String = selfAndAncestors(t).last

  // ---------------------------------------------------------------- entities

  /** Direct-type population sizes. Broad parents accumulate descendants, so
    * e.g. |place| >> |park| and gs(place) < gs(park), mirroring Ex. 14.
    */
  private val populations: Seq[(String, Int)] = Seq(
    "country" -> 60, "state" -> 240, "city" -> 2400, "county" -> 500,
    "park" -> 900, "mountain" -> 350, "river" -> 280,
    "politician" -> 700, "scientist" -> 650, "athlete" -> 1100,
    "filmmaker" -> 550, "person" -> 2600,
    "company" -> 1100, "school" -> 800, "hospital" -> 380, "sportsteam" -> 220,
    "movie" -> 1800, "musicalbum" -> 1300, "book" -> 1000,
    "bird" -> 450, "fish" -> 380, "tree" -> 300,
    "festival" -> 260, "vehicle" -> 280,
  )

  private val syllables = Array(
    "bo", "na", "ti", "ra", "mel", "son", "ka", "ver", "lin", "do", "sa",
    "mor", "ten", "qui", "fa", "del", "ur", "bi", "cho", "wek", "pol", "gar",
    "ni", "thu", "ves", "om", "pra", "zel", "ku", "har", "lo", "mi")

  private def word(rng: Random, n: Int): String =
    (1 to n).map(_ => syllables(rng.nextInt(syllables.length))).mkString

  /** Type-flavoured label templates; all labels are lower-case by design
    * (lake values are normalized to lower-case before KB lookup).
    */
  private def mkLabel(rng: Random, typeId: String): String = typeId match {
    case "city"       => word(rng, 2 + rng.nextInt(2))
    case "state"      => word(rng, 3)
    case "country"    => word(rng, 2) + Seq("ia", "land", "stan")(rng.nextInt(3))
    case "county"     => word(rng, 2) + " county"
    case "park"       => word(rng, 2) + " park"
    case "mountain"   => "mount " + word(rng, 2)
    case "river"      => word(rng, 2) + " river"
    case "company"    => word(rng, 2) + Seq(" corp", " inc", " ltd")(rng.nextInt(3))
    case "school"     => word(rng, 2) + Seq(" high school", " university", " academy")(rng.nextInt(3))
    case "hospital"   => word(rng, 2) + " hospital"
    case "sportsteam" => word(rng, 2) + " " + Seq("lions", "hawks", "bears", "wolves")(rng.nextInt(4))
    case "movie"      => Seq("the ", "", "a ")(rng.nextInt(3)) + word(rng, 2) + " " + word(rng, 2)
    case "musicalbum" => word(rng, 2 + rng.nextInt(2))
    case "book"       => word(rng, 2) + " of " + word(rng, 2)
    case "bird" | "fish" | "tree" => word(rng, 2) + " " + word(rng, 2)
    case "festival"   => word(rng, 2) + " festival"
    case "vehicle"    => word(rng, 2) + " " + (100 + rng.nextInt(900))
    case _            => word(rng, 2) + " " + word(rng, 2) // person-like
  }

  val entities: Vector[Entity] = {
    val rng = new Random(seed)
    val used = mutable.HashSet[String]()
    val out = Vector.newBuilder[Entity]
    var id = 0L
    for ((typeId, n) <- populations; _ <- 0 until n) {
      var label = mkLabel(rng, typeId)
      var attempt = 0
      while (used.contains(label) && attempt < 20) { label = mkLabel(rng, typeId); attempt += 1 }
      if (used.contains(label)) label = s"$label ${id}" // last-resort uniquifier
      used += label
      val alt =
        if (rng.nextDouble() < 0.12 && label.contains(' ')) Seq(label.replace(" ", ""))
        else Seq.empty
      out += Entity(id, typeId, label, alt)
      id += 1
    }
    var es = out.result()
    // Homographs: 40 music albums adopt city labels (Boston-the-album, Ex. 12).
    val cities = es.filter(_.typeId == "city")
    val albumIdx = es.zipWithIndex.filter(_._1.typeId == "musicalbum").map(_._2)
    val hRng = new Random(seed + 7)
    albumIdx.take(40).zipWithIndex.foreach { case (i, j) =>
      val cityLabel = cities(hRng.nextInt(cities.length) min (cities.length - 1)).label
      es = es.updated(i, es(i).copy(label = cityLabel, altLabels = Seq.empty))
      val _ = j
    }
    es
  }

  val entitiesById: Map[Long, Entity] = entities.map(e => e.id -> e).toMap

  /** Entities by *direct* type. */
  val byType: Map[String, Vector[Entity]] = entities.groupBy(_.typeId)

  /** Entities whose direct type is `t` or any descendant of `t`. */
  def byTypeTransitive(t: String): Vector[Entity] =
    entities.filter(e => selfAndAncestors(e.typeId).contains(t))

  // ------------------------------------------------------------------- facts

  /** (predicate, subjectType, objectType) triples to populate. Each subject
    * gets exactly one object, so every predicate is functional — the property
    * that makes lake column pairs derived from it satisfy a unary FD.
    */
  private val predicateSpecs: Seq[(String, String, String)] = Seq(
    ("locatedin", "city", "state"),
    ("locatedin", "state", "country"),
    ("locatedin", "county", "state"),
    ("locatedin", "park", "city"),
    ("locatedin", "school", "city"),
    ("locatedin", "hospital", "city"),
    ("locatedin", "mountain", "state"),
    ("locatedin", "river", "state"),
    ("bornin", "person", "city"),
    ("bornin", "politician", "city"),
    ("bornin", "scientist", "city"),
    ("bornin", "athlete", "city"),
    ("bornin", "filmmaker", "city"),
    ("worksin", "person", "city"),
    ("worksin", "politician", "city"),
    ("worksin", "scientist", "city"),
    ("ledby", "park", "person"),
    ("ledby", "city", "politician"), // a city's head — the places-trap column
    ("directedby", "movie", "filmmaker"),
    ("performedby", "musicalbum", "person"),
    ("writtenby", "book", "person"),
    ("playsfor", "athlete", "sportsteam"),
    ("foundin", "bird", "county"),
    ("foundin", "fish", "county"),
    ("foundin", "tree", "county"),
    ("heldin", "festival", "city"),
    ("madeby", "vehicle", "company"),
    ("headquarteredin", "company", "city"),
  )

  /** Zipf-like index draw, concentrated at low indices: popular cities host
    * most parks/schools/people, as in real open data. This is what makes
    * city/state/county columns overlap heavily *across* domains — the value
    * distribution that fools column-overlap methods (Ex. 1).
    */
  private def skewedIndex(rng: Random, n: Int): Int =
    math.min(n - 1, (n * math.pow(rng.nextDouble(), 2.5)).toInt)

  val facts: Vector[Fact] = {
    val rng = new Random(seed + 1)
    val out = Vector.newBuilder[Fact]
    for ((pred, st, ot) <- predicateSpecs) {
      val subjects = byType.getOrElse(st, Vector.empty)
      val objects = byType.getOrElse(ot, Vector.empty)
      if (objects.nonEmpty) {
        subjects.foreach { s =>
          out += Fact(s.id, pred, objects(skewedIndex(rng, objects.length)).id)
        }
      }
    }
    out.result()
  }

  /** predicate -> (subject entity id -> object entity id). */
  val factIndex: Map[String, Map[Long, Long]] =
    facts.groupBy(_.predicate).map { case (p, fs) => p -> fs.map(f => f.subj -> f.obj).toMap }

  /** The object of `pred` for subject `subjId`, if any. */
  def objOf(pred: String, subjId: Long): Option[Long] =
    factIndex.get(pred).flatMap(_.get(subjId))
}
