package repro.kb

import org.apache.spark.SparkContext
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{DataFrame, SparkSession}
import scala.collection.mutable
import scala.util.Random

/** Knobs for building a (possibly degraded) KB index.
  *
  * @param entityFraction fraction of entities retained — the Fig. 9 ablation
  *                       removes KB entities at random and re-measures MAP@k
  * @param keepTopLevels  if set, drop entities outside these top-level types
  *                       (TURL's web-table domain bias)
  * @param keepPredicates if set, drop facts with other predicates
  * @param typeNoise      fraction of entities whose direct type is remapped to
  *                       a random other type (TURL's annotation noise)
  * @param sampleSeed     seed for entity subsampling
  * @param noiseSeed      seed for type noise
  */
final case class KBConfig(
    entityFraction: Double = 1.0,
    keepTopLevels: Option[Set[String]] = None,
    keepPredicates: Option[Set[String]] = None,
    typeNoise: Double = 0.0,
    sampleSeed: Long = 17L,
    noiseSeed: Long = 23L)

/** The paper's four KB dictionaries (Sec. 7.1) as DataFrames, each built on
  * first use (indexing and the query phase read [[view]] instead).
  *
  * @param labelsDf       entity dictionary: (label, entity_id) — canonical and
  *                       alternate names, lower-cased
  * @param typeDictDf     type dictionary expanded through the hierarchy:
  *                       (label, type_id, top_level, gs); one row per
  *                       (label, ancestor-or-self type) of any entity with that
  *                       label. gs is the Eq. (2) granularity score.
  * @param relDictDf      relationship dictionary: (label_subj, label_obj,
  *                       predicate, pred_pairs) for every labeled fact;
  *                       pred_pairs is the predicate's KB pair count, used for
  *                       the Eq. (4) rarer-predicate tie-break
  * @param coveredLabelsDf distinct labels present in the KB (defines "mapped to
  *                       the KB" for Eq. 1 and Eq. 4 denominators)
  * @param topLevelCounts entities per top-level type (majority tie-break of
  *                       Sec. 4.1 footnote 3: rarer top-level wins)
  * @param builtView      the dictionaries as a [[KBView]], when they were
  *                       built from rows at hand (`KBDictionaries.build`);
  *                       otherwise [[view]] collects them on first use
  */
final class KBIndex(
    labelsDf: => DataFrame,
    typeDictDf: => DataFrame,
    relDictDf: => DataFrame,
    coveredLabelsDf: => DataFrame,
    val topLevelCounts: Map[String, Long],
    val typeGs: Map[String, Double],
    builtView: Option[KBView] = None) extends Serializable {

  lazy val labels: DataFrame = labelsDf
  lazy val typeDict: DataFrame = typeDictDf
  lazy val relDict: DataFrame = relDictDf
  lazy val coveredLabels: DataFrame = coveredLabelsDf

  /** Forces what indexing reads (indexing is a timed phase): [[view]] and
    * its broadcast.
    */
  def materialize(): this.type = {
    val _ = broadcastView
    this
  }

  /** Releases the executors' copies of [[broadcastView]]; the driver keeps
    * its own, so lineage cached over the view can still recompute.
    */
  def unpersistAll(): Unit =
    if (broadcastUsed) broadcastView.unpersist()

  /** The dictionaries as driver-side hash maps, read by the query phase and,
    * through [[broadcastView]], by the per-table indexing kernel.
    */
  @transient lazy val view: KBView = builtView.getOrElse(KBView.collect(this))

  @transient @volatile private var broadcastUsed = false

  /** [[view]] broadcast to the executors, once per KB. */
  @transient lazy val broadcastView: Broadcast[KBView] = {
    broadcastUsed = true
    SparkContext.getOrCreate().broadcast(view)
  }
}

/** One type of a label in the type dictionary. */
final case class KBType(typeId: String, topLevel: String, gs: Double)

/** One predicate of a label pair in the relationship dictionary. */
final case class KBPredicate(predicate: String, predPairs: Long)

/** Driver-resident lookups over a [[KBIndex]]:
  *
  * @param types      `typeDict`: label -> every self-or-ancestor type
  * @param covered    `coveredLabels`: labels present in the KB
  * @param predicates `relDict`: (subject label, object label) -> predicates
  * @param topLevelCounts entities per top-level type, as in [[KBIndex]]
  */
final class KBView(
    val types: Map[String, Seq[KBType]],
    val covered: Set[String],
    val predicates: Map[(String, String), Seq[KBPredicate]],
    val topLevelCounts: Map[String, Long]) extends Serializable

object KBView {

  /** Builds the view from dictionary rows: `typeRows` as `typeDict`,
    * `relRows` as `relDict`, `covered` as `coveredLabels`. Equal types and
    * predicates share one instance, which keeps the view small on the heap
    * and in its broadcast.
    */
  def of(typeRows: Seq[(String, String, String, Double)],
         relRows: Seq[(String, String, String, Long)],
         covered: Iterable[String],
         topLevelCounts: Map[String, Long]): KBView = {
    val types = mutable.HashMap.empty[KBType, KBType]
    val preds = mutable.HashMap.empty[KBPredicate, KBPredicate]
    new KBView(
      typeRows.distinct.groupMap(_._1) { case (_, t, top, gs) =>
        val ty = KBType(t, top, gs)
        types.getOrElseUpdate(ty, ty)
      },
      covered.toSet,
      relRows.distinct.groupMap(r => (r._1, r._2)) { case (_, _, p, n) =>
        val pred = KBPredicate(p, n)
        preds.getOrElseUpdate(pred, pred)
      },
      topLevelCounts)
  }

  /** Collects the view from the dictionary DataFrames, one Spark job each. */
  def collect(kb: KBIndex): KBView =
    of(kb.typeDict.select("label", "type_id", "top_level", "gs").collect().toSeq
         .map(r => (r.getString(0), r.getString(1), r.getString(2), r.getDouble(3))),
       kb.relDict.select("label_subj", "label_obj", "predicate", "pred_pairs").collect().toSeq
         .map(r => (r.getString(0), r.getString(1), r.getString(2), r.getLong(3))),
       kb.coveredLabels.select("label").collect().map(_.getString(0)),
       kb.topLevelCounts)
}

object KBDictionaries {

  /** Granularity score, Eq. (2) as intended by the text: the printed formula
    * `1/min(1, log count)` is a typo — Ex. 14 pins gs(place: 6M)≈0.14 and
    * gs(city: 42k)≈0.22, i.e. `gs(a) = 1 / max(1, log10(a.count))`, which also
    * satisfies the stated 0..1 range (rare types with <10 entities get 1).
    */
  def granularityScore(entityCount: Long): Double =
    1.0 / math.max(1.0, math.log10(entityCount.toDouble))

  /** Builds the four dictionaries from the synthetic world on the driver
    * (the world is small), as the [[KBView]] and, on first use, as
    * DataFrames.
    */
  def build(spark: SparkSession, world: World, config: KBConfig = KBConfig()): KBIndex = {
    import spark.implicits._

    // 1. Entity subsampling (Fig. 9) + top-level filtering (TURL bias).
    val sampleRng = new Random(config.sampleSeed)
    val kept0 = world.entities.filter(_ => sampleRng.nextDouble() < config.entityFraction)
    val kept = config.keepTopLevels match {
      case Some(tops) => kept0.filter(e => tops.contains(world.topLevelOf(e.typeId)))
      case None       => kept0
    }
    val keptIds = kept.map(_.id).toSet

    // 2. Direct type assignment, with optional noise (TURL misannotation).
    // The noise pool respects keepTopLevels: a degraded annotator mislabels
    // within its own vocabulary, it does not invent types it was never
    // trained on.
    val noiseRng = new Random(config.noiseSeed)
    val allTypes = world.allTypes.toVector.sorted.filter(t =>
      config.keepTopLevels.forall(_.contains(world.topLevelOf(t))))
    val directTypes: Seq[(Long, String)] = kept.map { e =>
      val t =
        if (config.typeNoise > 0 && noiseRng.nextDouble() < config.typeNoise)
          allTypes(noiseRng.nextInt(allTypes.length))
        else e.typeId
      e.id -> t
    }
    val directTypeById = directTypes.toMap

    // 3. Entity counts per (self-or-ancestor) type over the kept population.
    val typeCounts: Map[String, Long] = directTypes
      .flatMap { case (_, t) => world.selfAndAncestors(t) }
      .groupBy(identity).map { case (t, xs) => t -> xs.size.toLong }
    val gs: Map[String, Double] = typeCounts.map { case (t, n) => t -> granularityScore(n) }
    val topLevelCounts: Map[String, Long] =
      typeCounts.filter { case (t, _) => world.typeParents(t) == world.root }

    // 4. Entity dictionary: canonical + alternate labels.
    val labelRows: Seq[(String, Long)] =
      kept.flatMap(e => (e.label +: e.altLabels).map(l => (l, e.id)))

    // 5. Type dictionary: label -> every self-or-ancestor type with gs.
    val typeDictRows: Seq[(String, String, String, Double)] = labelRows.flatMap {
      case (label, id) =>
        val direct = directTypeById(id)
        world.selfAndAncestors(direct).map { t =>
          (label, t, world.topLevelOf(t), gs(t))
        }
    }.distinct

    // 6. Relationship dictionary over kept entities (and kept predicates).
    val keptFacts = world.facts.filter { f =>
      keptIds.contains(f.subj) && keptIds.contains(f.obj) &&
        config.keepPredicates.forall(_.contains(f.predicate))
    }
    val predPairs: Map[String, Long] =
      keptFacts.groupBy(_.predicate).map { case (p, fs) =>
        p -> fs.map(f => (f.subj, f.obj)).distinct.size.toLong
      }
    val labelsById: Map[Long, Seq[String]] =
      kept.map(e => e.id -> (e.label +: e.altLabels)).toMap
    val relRows: Seq[(String, String, String, Long)] = keptFacts.flatMap { f =>
      for {
        ls <- labelsById(f.subj)
        lo <- labelsById(f.obj)
      } yield (ls, lo, f.predicate, predPairs(f.predicate))
    }.distinct
    val coveredRows = labelRows.map(_._1).distinct

    new KBIndex(
      labelRows.toDF("label", "entity_id"),
      typeDictRows.toDF("label", "type_id", "top_level", "gs"),
      relRows.toDF("label_subj", "label_obj", "predicate", "pred_pairs"),
      coveredRows.toDF("label"),
      topLevelCounts, gs,
      Some(KBView.of(typeDictRows, relRows, coveredRows, topLevelCounts)))
  }
}
