package org.apache.spark

/** Waits until every event posted so far has reached the listeners. The
  * listener bus is asynchronous and `waitUntilEmpty` is package-private,
  * so the benchmark reaches it from Spark's own package.
  */
object BusDrain {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
