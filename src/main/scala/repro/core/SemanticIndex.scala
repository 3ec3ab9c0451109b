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
  * answers "which lake columns carry type a". The query phase reads them
  * through [[serving]], their driver-side hash-map form.
  *
  * @param shared intermediates the index exposes and releases with its
  *               members
  * @param stage  the per-table stage the members are computed from, cached
  *               only while [[materialize]] runs
  */
final case class LakeIndex(
    kb: Option[KBIndex],
    kbCS: Option[DataFrame],
    kbRS: Option[DataFrame],
    synth: Option[SynthIndex],
    shared: Seq[DataFrame] = Seq.empty,
    stage: Option[DataFrame] = None) {

  def materialize(): this.type = {
    TableStage.materialize(kbCS.toSeq ++ kbRS.toSeq ++ synth.toSeq.flatMap(_.members), stage)
    this
  }

  /** The inverted indexes as driver-side hash maps, for the query phase.
    * Collected from the persisted DataFrames on first use, not by
    * [[materialize]], so flows that only index never pay for it.
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
    * pass), then the synthesized KB's two cross-table overlaps. The lake's
    * value pairs are exposed as `shared`, planned but never computed or
    * cached by the build itself.
    *
    * @param cells    lake cells
    * @param kb       the existing KB (None = SANTOS_Synth variant)
    * @param useSynth whether to build the synthesized KB (false = SANTOS_KB)
    */
  def build(cells: DataFrame, kb: Option[KBIndex], useSynth: Boolean): LakeIndex = {
    val stage = TableStage(cells, kb, annotate = kb.isDefined, synthesize = useSynth)
    val synth =
      if (useSynth) Some(SynthesizedKB.fromStage(stage, SynthesizedKB.defaultMaxValueSpread)) else None
    LakeIndex(kb, kb.map(_ => stage.kbCS), kb.map(_ => stage.kbRS), synth,
              shared = Seq(LakeSchema.valuePairs(cells)), stage = Some(stage.tables))
  }
}
