package perfbench

/** Reference folds written independently of the program's AggCore, over
  * values in frame order (oldest first). `null` values are skipped, as in
  * SQL aggregates; an aggregate over no values is `null`.
  */
object Ref {
  def nonNull(xs: Seq[java.lang.Double]): Seq[Double] = xs.filter(_ != null).map(_.doubleValue)

  def sum(xs: Seq[java.lang.Double]): Any = { val v = nonNull(xs); if (v.isEmpty) null else v.sum }
  def avg(xs: Seq[java.lang.Double]): Any = { val v = nonNull(xs); if (v.isEmpty) null else v.sum / v.size }
  def min(xs: Seq[java.lang.Double]): Any = { val v = nonNull(xs); if (v.isEmpty) null else v.min }
  def max(xs: Seq[java.lang.Double]): Any = { val v = nonNull(xs); if (v.isEmpty) null else v.max }

  def distinctCount(cats: Seq[String]): Long = cats.filter(_ != null).distinct.size.toLong

  /** Top-n categories by frequency, ties by category ascending, joined by ",". */
  def topN(cats: Seq[String], n: Int): String =
    cats.filter(_ != null).groupBy(identity).toSeq.map { case (c, xs) => (c, xs.size) }
      .sortBy { case (c, k) => (-k, c) }.take(n).map(_._1).mkString(",")

  /** "category:average" of values whose flag is true, by category ascending. */
  def avgCateWhere(vals: Seq[java.lang.Double], flags: Seq[java.lang.Boolean], cats: Seq[String]): String = {
    val acc = scala.collection.mutable.TreeMap.empty[String, (Double, Long)]
    vals.lazyZip(flags).lazyZip(cats).foreach { (v, f, c) =>
      if (v != null && f != null && f.booleanValue && c != null) {
        val (s, n) = acc.getOrElse(c, (0.0, 0L)); acc(c) = (s + v, n + 1)
      }
    }
    acc.iterator.map { case (c, (s, n)) => s"$c:${s / n}" }.mkString(",")
  }

  /** Exponentially weighted average; the newest value has weight 1. */
  def ewAvg(xs: Seq[java.lang.Double], alpha: Double): Any = {
    val v = nonNull(xs)
    if (v.isEmpty) null
    else {
      var num = 0.0; var den = 0.0
      v.foreach { x => num = x + (1 - alpha) * num; den = 1 + (1 - alpha) * den }
      num / den
    }
  }

  /** Largest fall from a running peak, as a share of the peak. */
  def drawdown(xs: Seq[java.lang.Double]): Any = {
    val v = nonNull(xs)
    if (v.isEmpty) null
    else {
      var peak = v.head; var dd = 0.0
      v.tail.foreach(x => if (x > peak) peak = x else if (peak > 0) dd = math.max(dd, (peak - x) / peak))
      dd
    }
  }
}
