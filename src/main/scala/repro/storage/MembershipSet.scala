package repro.storage

import repro.core.SplitMix

/** Which rows of a shared block belong to a (possibly filtered) table.
  *
  * Paper §5.6: derived tables share column data and store a "membership
  * set"; dense tables store a bitmap, sparse tables a hash-set of row
  * indexes, and uniform sampling must work over both without reading
  * every row. We implement the dense case as a bitmap sampled by skips
  * over row positions that keep only members, and the sparse case as a
  * sorted index array sampled by skips over its entries (Bernoulli over
  * members is uniform, matching the hash-order scheme in the paper).
  */
sealed trait MembershipSet extends Serializable {
  /** Number of rows in the underlying block. */
  def universe: Int
  /** Number of member rows. */
  def size: Int
  def contains(i: Int): Boolean
  /** Members in increasing row order. */
  def iterator: Iterator[Int]
  /** Bernoulli(rate) sample of members, uniform, via geometric skips. */
  def sample(rate: Double, rng: SplitMix): Iterator[Int]
}

object MembershipSet {
  /** Above this member density a bitmap is cheaper than an index array. */
  val DenseThreshold = 0.25

  def full(universe: Int): MembershipSet = FullMembership(universe)

  /** Build from a predicate over row indices, picking dense vs sparse
    * representation by density (paper §5.6).
    */
  def from(universe: Int, pred: Int => Boolean): MembershipSet = {
    val bits = new java.util.BitSet(universe)
    var i = 0
    var n = 0
    while (i < universe) { if (pred(i)) { bits.set(i); n += 1 }; i += 1 }
    if (n == universe) FullMembership(universe)
    else if (n >= universe * DenseThreshold) new DenseMembership(universe, bits)
    else {
      val idx = new Array[Int](n)
      var j   = 0
      var b   = bits.nextSetBit(0)
      while (b >= 0) { idx(j) = b; j += 1; b = bits.nextSetBit(b + 1) }
      new SparseMembership(universe, idx)
    }
  }

  /** Geometric skip distance for Bernoulli(rate): number of elements to
    * jump so that each element is kept independently with prob `rate`.
    */
  private[storage] def skip(rate: Double, rng: SplitMix): Int =
    if (rate >= 1.0) 1
    else {
      val u = math.max(rng.nextDouble(), 1e-300)
      1 + (math.log(u) / math.log1p(-rate)).toInt
    }

  /** Sample positions 0..n-1 with Bernoulli(rate) via skips. */
  private[storage] def samplePositions(n: Int, rate: Double, rng: SplitMix): Iterator[Int] =
    new Iterator[Int] {
      private var pos = skip(rate, rng) - 1
      def hasNext: Boolean = pos < n
      def next(): Int = { val r = pos; pos += skip(rate, rng); r }
    }
}

final case class FullMembership(universe: Int) extends MembershipSet {
  def size: Int                 = universe
  def contains(i: Int): Boolean = i >= 0 && i < universe
  def iterator: Iterator[Int]   = Iterator.range(0, universe)
  def sample(rate: Double, rng: SplitMix): Iterator[Int] =
    MembershipSet.samplePositions(universe, rate, rng)
}

final class DenseMembership(val universe: Int, bits: java.util.BitSet) extends MembershipSet {
  val size: Int                 = bits.cardinality()
  def contains(i: Int): Boolean = bits.get(i)

  def iterator: Iterator[Int] = new Iterator[Int] {
    private var b = bits.nextSetBit(0)
    def hasNext: Boolean = b >= 0
    def next(): Int = { val r = b; b = bits.nextSetBit(b + 1); r }
  }

  /** Bernoulli(rate) over universe positions, keeping members: an exact
    * Bernoulli(rate) sample of the members, in increasing order, that
    * probes on average at most 1/DenseThreshold positions per member kept.
    */
  def sample(rate: Double, rng: SplitMix): Iterator[Int] =
    MembershipSet.samplePositions(universe, rate, rng).filter(bits.get)
}

final class SparseMembership(val universe: Int, sortedIdx: Array[Int]) extends MembershipSet {
  def size: Int                 = sortedIdx.length
  def contains(i: Int): Boolean = java.util.Arrays.binarySearch(sortedIdx, i) >= 0
  def iterator: Iterator[Int]   = sortedIdx.iterator
  def sample(rate: Double, rng: SplitMix): Iterator[Int] =
    MembershipSet.samplePositions(sortedIdx.length, rate, rng).map(sortedIdx)
}
