package repro.core

import org.apache.spark.sql.DataFrame
import repro.kb.KBIndex
import repro.lake.LakeSchema

/** Output of the offline pre-processing phase (Sec. 7.3): the node inverted
  * index (annotation → column with CS_CONF) and edge inverted index
  * (annotation → column pair with RS_CONF), for the existing-KB method and/or
  * the synthesized-KB method. A `None` member means that method is disabled
  * (the SANTOS_KB / SANTOS_Synth ablation variants of Sec. 8.3).
  *
  * The DataFrames *are* the inverted indexes: `kbCS` keyed by `annotation`
  * answers "which lake columns carry type a". [[SemanticIndex.build]]
  * returns them cached. The query phase reads them through [[serving]],
  * their driver-side hash-map form.
  *
  * @param shared intermediates the index exposes and releases with its
  *               members; kept for perfbench's `Pipeline`, remove with
  *               ROADMAP item 1
  */
final case class LakeIndex(
    kb: Option[KBIndex],
    kbCS: Option[DataFrame],
    kbRS: Option[DataFrame],
    synth: Option[SynthIndex],
    shared: Seq[DataFrame] = Seq.empty) {

  /** The identity: the members are cached when the build returns. Kept for
    * perfbench's `Pipeline`; remove with ROADMAP item 1.
    */
  def materialize(): this.type = this

  /** The inverted indexes as driver-side hash maps, for the query phase.
    * Collected from the cached DataFrames on first use, not by the build,
    * so flows that only index never pay for it.
    */
  lazy val serving: ServingView = ServingView.collect(this)

  def unpersistAll(): Unit = {
    (kbCS.toSeq ++ kbRS.toSeq).foreach(_.unpersist())
    synth.foreach(_.unpersistAll())
    kb.foreach(_.unpersistAll())
    shared.foreach(_.unpersist())
  }
}

object SemanticIndex {

  /** Runs the pre-processing phase over the lake: one per-table stage
    * ([[TableStage]]: KB column and relationship semantics, unary FDs and
    * the synthesized dictionaries' per-table parts, for every table in one
    * pass), then the synthesized KB's two cross-table overlaps. Every member
    * is cached when it returns, by one pass over all of them. The lake's
    * value pairs are exposed as `shared`, planned but never computed or
    * cached by the build itself.
    *
    * @param cells    lake cells
    * @param kb       the existing KB (None = SANTOS_Synth variant)
    * @param useSynth whether to build the synthesized KB (false = SANTOS_KB)
    * @throws IllegalArgumentException if neither method is enabled
    */
  def build(cells: DataFrame, kb: Option[KBIndex], useSynth: Boolean): LakeIndex = {
    require(kb.isDefined || useSynth,
            "an index needs at least one method: pass a KB, set useSynth, or both")
    val stage = TableStage(cells, kb, annotate = kb.isDefined, synthesize = useSynth)
    val synth =
      if (useSynth) Some(SynthesizedKB.fromStage(stage, SynthesizedKB.defaultMaxValueSpread)) else None
    val index = LakeIndex(kb, kb.map(_ => stage.kbCS), kb.map(_ => stage.kbRS), synth,
                          shared = Seq(LakeSchema.valuePairs(cells)))
    stage.cache(index.kbCS.toSeq ++ index.kbRS.toSeq ++ synth.toSeq.flatMap(_.members))
    index
  }
}
