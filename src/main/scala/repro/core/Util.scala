package repro.core

import java.io.{ByteArrayOutputStream, ObjectOutputStream, OutputStream}

/** SplitMix64 — a tiny, fast, deterministic PRNG.
  *
  * Vizketches must be deterministic in (seed, blockId) so that redo-log
  * replay after a failure reproduces bit-identical results (§5.8 of the
  * paper: "the log includes the seed used for randomization").
  */
final class SplitMix(seed: Long) extends Serializable {
  private var state: Long = seed

  def nextLong(): Long = {
    state += 0x9E3779B97F4A7C15L
    var z = state
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z ^ (z >>> 31)
  }

  /** Uniform double in [0, 1). */
  def nextDouble(): Double = (nextLong() >>> 11) * 1.1102230246251565e-16

  /** Uniform int in [0, n). */
  def nextInt(n: Int): Int = {
    require(n > 0, s"nextInt bound must be positive: $n")
    (((nextLong() >>> 33) * n) >>> 31).toInt
  }
}

object SplitMix {
  /** Stateless mix of two longs — used to derive per-leaf seeds. */
  def mix(a: Long, b: Long): Long = {
    var z = a ^ (b * 0x9E3779B97F4A7C15L)
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z ^ (z >>> 31)
  }

  /** Stable 64-bit hash of a string (FNV-1a widened through mix). */
  def hashString(s: String): Long = {
    var h = 0xcbf29ce484222325L
    var i = 0
    while (i < s.length) { h ^= s.charAt(i); h *= 0x100000001b3L; i += 1 }
    mix(h, 0x5bf03635L)
  }
}

/** Element-wise sum of two count vectors: the merge of every bucketed
  * summary (histogram, stacked histogram, heat map).
  */
object Counts {
  def add(a: Array[Long], b: Array[Long]): Array[Long] = {
    require(a.length == b.length, s"bucket count mismatch in merge: ${a.length} vs ${b.length}")
    val c = new Array[Long](a.length)
    var i = 0
    while (i < c.length) { c(i) = a(i) + b(i); i += 1 }
    c
  }
}

/** Java-serialized size of a summary — models the bytes an aggregation
  * node sends to the root (the paper's Fig. 5 bottom metric).
  */
object Serde {
  private final class CountingStream extends OutputStream {
    var count: Long = 0L
    override def write(b: Int): Unit = count += 1
    override def write(b: Array[Byte], off: Int, len: Int): Unit = count += len
  }

  def sizeOf(obj: Any): Long = {
    val cs  = new CountingStream
    val oos = new ObjectOutputStream(cs)
    oos.writeObject(obj.asInstanceOf[AnyRef]); oos.flush(); oos.close()
    cs.count
  }

  def toBytes(obj: Any): Array[Byte] = {
    val bos = new ByteArrayOutputStream()
    val oos = new ObjectOutputStream(bos)
    oos.writeObject(obj.asInstanceOf[AnyRef]); oos.flush(); oos.close()
    bos.toByteArray
  }
}
