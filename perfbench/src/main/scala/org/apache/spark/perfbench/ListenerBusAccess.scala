package org.apache.spark.perfbench

import org.apache.spark.SparkContext

/** The listener bus is internal to Spark; this bridge lets the tracer wait
  * until every posted event has reached its listener before it reads the
  * per-span counters.
  */
object ListenerBusAccess {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
