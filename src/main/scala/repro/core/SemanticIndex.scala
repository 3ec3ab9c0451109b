package repro.core

import org.apache.spark.sql.DataFrame
import repro.kb.KBIndex

/** Output of the offline pre-processing phase (Sec. 7.3): the node inverted
  * index (annotation → column with CS_CONF) and edge inverted index
  * (annotation → column pair with RS_CONF), for the existing-KB method and/or
  * the synthesized-KB method. A `None` member means that method is disabled
  * (the SANTOS_KB / SANTOS_Synth ablation variants of Sec. 8.3).
  *
  * The DataFrames *are* the inverted indexes: `kbCS` keyed by `annotation`
  * answers "which lake columns carry type a". The query phase reads them
  * through [[serving]], their driver-side hash-map form.
  */
final case class LakeIndex(
    kb: Option[KBIndex],
    kbCS: Option[DataFrame],
    kbRS: Option[DataFrame],
    synth: Option[SynthIndex],
    shared: Seq[DataFrame] = Seq.empty) {

  def materialize(): this.type = {
    (kbCS.toSeq ++ kbRS.toSeq).foreach { df => df.persist(); val _ = df.count() }
    synth.foreach(_.materialize())
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

  /** Runs the pre-processing phase over the lake. The distinct value pairs —
    * the most expensive intermediate (a per-table self-join) — are computed
    * once, persisted, and shared between the KB relationship phase and the
    * synthesized-KB phase.
    *
    * @param cells    lake cells
    * @param kb       the existing KB (None = SANTOS_Synth variant)
    * @param useSynth whether to build the synthesized KB (false = SANTOS_KB)
    */
  def build(cells: DataFrame, kb: Option[KBIndex], useSynth: Boolean): LakeIndex = {
    val pairs = repro.lake.LakeSchema.valuePairs(cells).persist()
    val kbCS = kb.map(k => ColumnSemantics.compute(cells, k, isQuery = false))
    val kbRS = for (k <- kb; cs <- kbCS)
      yield RelationshipSemantics.computeFromPairs(pairs, k, cs)
    val synth =
      if (useSynth) Some(SynthesizedKB.build(cells, excludeKb = kb, precomputedPairs = Some(pairs)))
      else None
    LakeIndex(kb, kbCS, kbRS, synth, shared = Seq(pairs))
  }
}
