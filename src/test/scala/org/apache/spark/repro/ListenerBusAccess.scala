package org.apache.spark.repro

import org.apache.spark.SparkContext

/** The listener bus is internal to Spark; this bridge lets a test wait until
  * every posted event has reached its listener before it reads a counter.
  */
object ListenerBusAccess {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
