package repro.core.offline

import scala.collection.immutable.ListMap
import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.expressions.{Window, WindowSpec}
import org.apache.spark.sql.functions.col

/** The offline lowering of one feature window: all of its aggregates in a
  * single projection.
  *
  * The analyzer then extracts the window's order key once and Spark plans
  * one Exchange + Sort + `Window` operator per window spec. Chaining one
  * `withColumn` per aggregate instead re-extracts the order key under a
  * fresh alias each time, so `CollapseWindow` cannot merge the operators
  * and the whole, growing row is sorted once per aggregate.
  */
object WindowAggs {

  /** RANGE BETWEEN `rangeMs` PRECEDING AND CURRENT ROW, ordered by `tsCol`
    * as epoch millis.
    */
  def range(rangeMs: Long, tsCol: String, partitionBy: Column*): WindowSpec =
    Window.partitionBy(partitionBy: _*).orderBy(col(tsCol).cast("long")).rangeBetween(-rangeMs, 0)

  /** `df` with each (name, aggregate) evaluated over `w`. Every aggregate
    * reads the columns of `df`, never another aggregate of the same call.
    * A name equal to a column of `df` replaces that column in place (as
    * `withColumn` does); new names are appended in the given order.
    */
  def attach(df: DataFrame, w: WindowSpec, aggs: Seq[(String, Column)]): DataFrame = {
    val names = aggs.map(_._1)
    require(names.distinct.size == names.size, s"duplicate aggregate names: ${names.mkString(", ")}")
    df.withColumns(ListMap(aggs.map { case (n, a) => n -> a.over(w) }: _*))
  }
}
