package repro.core

import repro.storage.{Column, StringColumn}

/** One cell of a sort key. Numeric columns (ints, doubles, dates) compare
  * numerically; strings lexicographically; missing values sort last —
  * matching spreadsheet sort semantics (§3.3).
  */
sealed trait KeyCell extends Serializable {
  def render: String
}
case object NullCell extends KeyCell { def render = "∅" }
final case class NumCell(v: Double) extends KeyCell {
  def render: String = if (v == math.rint(v) && math.abs(v) < 1e15) v.toLong.toString else v.toString
}
final case class StrCell(v: String) extends KeyCell { def render: String = v }

object KeyCell {
  /** Total order within a single column: numbers < strings < null. */
  val ordering: Ordering[KeyCell] = (a: KeyCell, b: KeyCell) =>
    (a, b) match {
      case (NullCell, NullCell)       => 0
      case (NullCell, _)              => 1 // nulls last
      case (_, NullCell)              => -1
      case (NumCell(x), NumCell(y))   => java.lang.Double.compare(x, y)
      case (StrCell(x), StrCell(y))   => x.compareTo(y)
      case (NumCell(_), StrCell(_))   => -1
      case (StrCell(_), NumCell(_))   => 1
    }

  def of(c: Column, i: Int): KeyCell =
    if (c.isMissing(i)) NullCell
    else c match {
      case _: StringColumn => StrCell(c.asString(i))
      case _               => NumCell(c.asDouble(i))
    }
}

/** A column participating in a sort order. */
final case class SortCol(name: String, ascending: Boolean = true)

/** The visible tuple of a row under a column selection: the sort columns'
  * values in order. Duplicate tuples are aggregated with counts in the
  * tabular view (§3.3 "aggregate duplicates and show repetition counts").
  */
final case class RowKey(cells: Vector[KeyCell]) extends Serializable {
  def render: String = cells.map(_.render).mkString("|")
}

object RowKey {
  /** The key of row `i` over columns bound once per block. */
  def of(cols: Array[Column], i: Int): RowKey =
    RowKey(cols.iterator.map(KeyCell.of(_, i)).toVector)

  /** Compare row `i` of the given columns against `key` under the sort
    * signs WITHOUT materializing a RowKey — the hot reject path of the
    * next-items scan, which discards almost every row of a big table
    * against the current K-th key.
    */
  def compareRowTo(cols: Array[Column], i: Int, key: RowKey,
                   signs: Array[Int]): Int = {
    var j = 0
    while (j < cols.length && j < key.cells.length) {
      val c = cols(j)
      val cell = key.cells(j)
      val cmp =
        if (c.isMissing(i)) { if (cell eq NullCell) 0 else 1 }
        else cell match {
          case NullCell   => -1
          case NumCell(v) =>
            val x = c.asDouble(i)
            if (x.isNaN) 1 else java.lang.Double.compare(x, v) // strings vs num handled below
          case StrCell(s) =>
            val x = c.asString(i)
            if (x == null) 1 else x.compareTo(s)
        }
      val signed = cmp * (if (j < signs.length) signs(j) else 1)
      if (signed != 0) return signed
      j += 1
    }
    0
  }

  /** Lexicographic ordering honoring each column's direction. */
  def ordering(sortCols: Seq[SortCol]): Ordering[RowKey] = {
    val signs = sortCols.map(sc => if (sc.ascending) 1 else -1).toArray
    (a: RowKey, b: RowKey) => {
      var i = 0
      var cmp = 0
      while (cmp == 0 && i < a.cells.length && i < b.cells.length) {
        cmp = KeyCell.ordering.compare(a.cells(i), b.cells(i)) * (if (i < signs.length) signs(i) else 1)
        i += 1
      }
      if (cmp != 0) cmp else a.cells.length - b.cells.length
    }
  }
}
