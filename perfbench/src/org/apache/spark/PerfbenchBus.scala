package org.apache.spark

/** Bridge to Spark's package-private listener bus: wait until every event
  * posted so far has reached the listeners, so a job's figures are
  * complete when they are read.
  */
object PerfbenchBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
