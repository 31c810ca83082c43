package repro.core

import repro.storage.ColumnarBlock
import scala.jdk.CollectionConverters._

/** Summary: the K smallest distinct visible tuples strictly after `start`
  * in the sort order, each with its exact repetition count. Rendered
  * directly as the next page of the tabular view (§4.3 "Next items").
  */
final case class NextItemsSummary(rows: Vector[(RowKey, Long)]) extends Serializable

/** Next-items vizketch (§4.3): `summarize` keeps a bounded ordered map of
  * the K next tuples, `merge` combines two maps and keeps the K smallest.
  *
  * Exactness argument for counts under truncation: a key is evicted only
  * while K strictly-smaller keys are present; the map's maximum is
  * monotonically non-increasing thereafter, so an evicted key can never
  * re-enter, and every occurrence of a kept key is below the maximum and
  * is therefore counted.
  */
final case class NextItemsSketch(
    sortCols: Seq[SortCol],
    k: Int,
    start: Option[RowKey] = None
) extends Sketch[NextItemsSummary] {
  require(k > 0, "k must be positive")
  def name            = "nextitems"
  override def params = s"${sortCols.mkString(",")},k=$k,start=${start.map(_.render).getOrElse("⊥")}"

  private val ord = RowKey.ordering(sortCols)

  def zero = NextItemsSummary(Vector.empty)

  def summarize(block: ColumnarBlock, ctx: LeafCtx): NextItemsSummary = {
    val heap   = new java.util.TreeMap[RowKey, Long](ord)
    val cs     = sortCols.map(sc => block.column(sc.name)).toArray
    val signs  = sortCols.map(sc => if (sc.ascending) 1 else -1).toArray
    val startK = start.orNull
    block.foreachRow { i =>
      // Allocation-free reject paths: almost every row of a big table is
      // either before the start row or past the current K-th key.
      val afterStart = startK == null || RowKey.compareRowTo(cs, i, startK, signs) > 0
      if (afterStart &&
          (heap.size < k || RowKey.compareRowTo(cs, i, heap.lastKey, signs) <= 0)) {
        val key = RowKey.of(cs, i)
        heap.merge(key, 1L, (a, b) => a + b)
        if (heap.size > k) heap.pollLastEntry()
      }
    }
    NextItemsSummary(heap.entrySet.asScala.iterator.map(e => (e.getKey, e.getValue.longValue)).toVector)
  }

  def merge(a: NextItemsSummary, b: NextItemsSummary): NextItemsSummary = {
    // Linear merge of two sorted runs, combining counts on equal keys.
    val out = Vector.newBuilder[(RowKey, Long)]
    var i = 0
    var j = 0
    var taken = 0
    while (taken < k && (i < a.rows.length || j < b.rows.length)) {
      val takeA =
        j >= b.rows.length ||
        (i < a.rows.length && ord.compare(a.rows(i)._1, b.rows(j)._1) <= 0)
      if (takeA && j < b.rows.length && i < a.rows.length &&
          ord.compare(a.rows(i)._1, b.rows(j)._1) == 0) {
        out += ((a.rows(i)._1, a.rows(i)._2 + b.rows(j)._2)); i += 1; j += 1
      } else if (takeA) { out += a.rows(i); i += 1 }
      else { out += b.rows(j); j += 1 }
      taken += 1
    }
    NextItemsSummary(out.result())
  }
}

/** Find-text vizketch (App. B.2): the first row matching a search
  * criterion strictly after `start` in the sort order, plus the total
  * number of matches (so the UI can show "n matches").
  */
final case class FindTextSummary(firstMatch: Option[RowKey], matches: Long) extends Serializable

sealed trait TextMatchMode extends Serializable
case object ExactMatch extends TextMatchMode
case object SubstringMatch extends TextMatchMode
case object RegexMatch extends TextMatchMode

final case class FindTextSketch(
    col: String,
    pattern: String,
    mode: TextMatchMode,
    caseSensitive: Boolean,
    sortCols: Seq[SortCol],
    start: Option[RowKey] = None
) extends Sketch[FindTextSummary] {
  def name            = "findtext"
  override def params = s"$col,$pattern,$mode,cs=$caseSensitive,start=${start.map(_.render).getOrElse("⊥")}"

  private val ord          = RowKey.ordering(sortCols)
  private val lowerPattern = pattern.toLowerCase
  @transient private lazy val regex =
    if (mode == RegexMatch)
      java.util.regex.Pattern.compile(pattern,
        if (caseSensitive) 0 else java.util.regex.Pattern.CASE_INSENSITIVE)
    else null

  private def matches(s: String): Boolean = {
    if (s == null) return false
    mode match {
      case ExactMatch     => if (caseSensitive) s == pattern else s.equalsIgnoreCase(pattern)
      case SubstringMatch =>
        if (caseSensitive) s.contains(pattern)
        else s.toLowerCase.contains(lowerPattern)
      case RegexMatch     => regex.matcher(s).find()
    }
  }

  def zero = FindTextSummary(None, 0L)

  def summarize(block: ColumnarBlock, ctx: LeafCtx): FindTextSummary = {
    val c      = block.column(col)
    val cs     = sortCols.map(sc => block.column(sc.name)).toArray
    val signs  = sortCols.map(sc => if (sc.ascending) 1 else -1).toArray
    val startK = start.orNull
    var best: RowKey = null
    var n = 0L
    block.foreachRow { i =>
      if (matches(c.asString(i))) {
        n += 1
        // Reject without building the key; only a new best is materialized.
        if ((startK == null || RowKey.compareRowTo(cs, i, startK, signs) > 0) &&
            (best == null || RowKey.compareRowTo(cs, i, best, signs) < 0)) best = RowKey.of(cs, i)
      }
    }
    FindTextSummary(Option(best), n)
  }

  def merge(a: FindTextSummary, b: FindTextSummary): FindTextSummary = {
    val first = (a.firstMatch, b.firstMatch) match {
      case (Some(x), Some(y)) => Some(if (ord.compare(x, y) <= 0) x else y)
      case (x, y)             => x.orElse(y)
    }
    FindTextSummary(first, a.matches + b.matches)
  }
}
