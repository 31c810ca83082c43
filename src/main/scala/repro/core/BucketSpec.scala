package repro.core

import repro.storage.Column

/** Maps a cell to a bucket index in [0, count), or -1 when out of range /
  * missing. Charts are parameterized by one of these per axis; the number
  * of buckets is bounded by what the screen can show (§4.2: "compute only
  * what you can display").
  */
sealed trait BucketSpec extends Serializable {
  def count: Int
  /** Bucket of row `i` of column `c`; -1 if not bucketable. Sketches bind
    * `c` once per block, so no row pays a column lookup by name.
    */
  def indexOf(c: Column, i: Int): Int
  /** Human-readable label of bucket `b` (for rendered tables). */
  def label(b: Int): String
  def params: String
}

/** B equi-sized numeric intervals over [min, max]; max is folded into the
  * last bucket so the range sketch's observed maximum is representable.
  */
final case class NumericBuckets(min: Double, max: Double, count: Int) extends BucketSpec {
  require(count > 0, "need at least one bucket")
  // (+∞, −∞), the range of a column with no present values, buckets nothing.
  require(max >= min || (min.isPosInfinity && max.isNegInfinity), s"inverted range [$min, $max]")
  private val width = if (max > min) (max - min) / count else 1.0

  def indexOf(x: Double): Int =
    if (x.isNaN || x < min || x > max) -1
    else math.min(((x - min) / width).toInt, count - 1)

  def indexOf(c: Column, i: Int): Int = indexOf(c.asDouble(i))

  def boundary(b: Int): Double = min + b * width
  def label(b: Int): String    = f"[${boundary(b)}%.4g, ${boundary(b + 1)}%.4g)"
  def params: String           = f"num($min%.6g,$max%.6g,$count)"
}

/** Buckets of contiguous strings in alphabetical order, defined by sorted
  * left boundaries (paper App. B.1: used when a string column has more
  * than 50 distinct values). Bucket b covers [boundaries(b), boundaries(b+1)).
  */
final case class StringBoundaryBuckets(boundaries: Array[String]) extends BucketSpec {
  require(boundaries.nonEmpty, "need at least one boundary")
  def count: Int = boundaries.length

  def indexOf(s: String): Int = {
    if (s == null || s < boundaries(0)) return -1
    var lo = 0
    var hi = boundaries.length - 1
    while (lo < hi) { // last boundary <= s
      val mid = (lo + hi + 1) >>> 1
      if (boundaries(mid) <= s) lo = mid else hi = mid - 1
    }
    lo
  }

  def indexOf(c: Column, i: Int): Int = indexOf(c.asString(i))

  def label(b: Int): String = boundaries(b)
  def params: String        = s"strb(${boundaries.length}:${boundaries.headOption.getOrElse("")})"
}

/** One bucket per distinct value (≤ 50 distinct strings — paper App. B.1). */
final case class ExactStringBuckets(values: Array[String]) extends BucketSpec {
  private val index = values.zipWithIndex.toMap
  def count: Int    = values.length

  def indexOf(s: String): Int = if (s == null) -1 else index.getOrElse(s, -1)

  def indexOf(c: Column, i: Int): Int = indexOf(c.asString(i))

  def label(b: Int): String = values(b)
  def params: String        = s"strx(${values.mkString(",")})"
}
