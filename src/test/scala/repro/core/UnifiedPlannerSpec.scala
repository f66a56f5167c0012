package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import repro.SparkSpec
import repro.core.online.{OnlineTable, RequestEngine}

/** The offline lowering's plan shape and output schema, the spec-level
  * checks both engines rely on, and agreement with the request engine on
  * the cases those pin.
  */
class UnifiedPlannerSpec extends SparkSpec {

  private val H = 3600000L

  private lazy val actions: DataFrame = {
    import spark.implicits._
    val rnd = new scala.util.Random(7)
    val cats = Seq("shoes", "books", "toys")
    // ts unique across actions and orders: actions even, orders odd
    (0 until 120).map { i =>
      (1L + rnd.nextInt(4), 2L * (i * 60000L + rnd.nextInt(30000)), math.round(rnd.nextDouble() * 10000) / 100.0,
        cats(rnd.nextInt(cats.size)), rnd.nextBoolean(), 1L + rnd.nextInt(3))
    }.toDF("userid", "ts", "price", "category", "flag", "shop")
  }
  private lazy val orders: DataFrame = {
    import spark.implicits._
    val rnd = new scala.util.Random(8)
    (0 until 60).map(i => (1L + rnd.nextInt(4), 2L * (i * 120000L + rnd.nextInt(60000)) + 1, rnd.nextInt(500).toDouble))
      .toDF("userid", "ts", "price")
  }
  private lazy val profile: DataFrame = {
    import spark.implicits._
    (1L to 4L).flatMap(u => Seq((u, 0L, 20 + u.toInt, s"c$u"), (u, 2 * H + 2 * u, 40 + u.toInt, s"d$u")))
      .toDF("userid", "pts", "age", "city")
  }
  private def tables = Map("actions" -> actions, "orders" -> orders, "profile" -> profile)

  /** Built-ins, all five AggCore UDAFs, a WINDOW UNION, a second partition
    * key, a window without features, and a LAST JOIN.
    */
  private val mixed = FeatureSpec(
    primary = "actions",
    windows = Seq(
      WindowDef("w1h", "userid", "ts", H),
      WindowDef("w10m", "userid", "ts", 600000L, Seq("orders")),
      WindowDef("wshop", "shop", "ts", H),
      WindowDef("unused", "userid", "ts", 5000L)),
    features = Seq(
      Feature("cnt_1h", FeatureFn.Count, "w1h"),
      Feature("sum_1h", FeatureFn.Sum("price"), "w1h"),
      Feature("avg_1h", FeatureFn.Avg("price"), "w1h"),
      Feature("min_1h", FeatureFn.Min("price"), "w1h"),
      Feature("max_1h", FeatureFn.Max("price"), "w1h"),
      Feature("dc_1h", FeatureFn.DistinctCount("category"), "w1h"),
      Feature("top_1h", FeatureFn.TopNFreq("category", 2), "w1h"),
      Feature("acw_1h", FeatureFn.AvgCateWhere("price", "flag", "category"), "w1h"),
      Feature("ew_1h", FeatureFn.EwAvg("price", 0.5), "w1h"),
      Feature("dd_1h", FeatureFn.Drawdown("price"), "w1h"),
      Feature("ucnt_10m", FeatureFn.Count, "w10m"),
      Feature("usum_10m", FeatureFn.Sum("price"), "w10m"),
      Feature("scnt_1h", FeatureFn.Count, "wshop"),
      Feature("savg_1h", FeatureFn.Avg("price"), "wshop")),
    lastJoins = Seq(LastJoinDef("profile", "userid", "pts", Seq("age", "city"), "p_")))

  private def num(v: Any): Double = v match {
    case d: Double => d
    case l: Long   => l.toDouble
    case i: Int    => i.toDouble
    case o         => o.toString.toDouble
  }
  private def same(a: Any, b: Any): Boolean = (a, b) match {
    case (null, null)                               => true
    case (null, _) | (_, null)                      => false
    case (x: java.lang.Number, y: java.lang.Number) => math.abs(num(x) - num(y)) <= 1e-9 * math.max(1.0, math.abs(num(x)))
    case (x, y)                                     => x == y
  }

  /** Online results per (userid, ts): the request engine answers each
    * primary row after every earlier primary row, all union rows and all
    * LAST JOIN rows are stored (timestamps are unique, so the frames equal
    * the offline ones).
    */
  private def online(spec: FeatureSpec, prim: DataFrame, tsCol: String): Map[(Long, Long), Map[String, Any]] = {
    def rows(df: DataFrame): Seq[Map[String, Any]] =
      df.collect().toSeq.map((r: Row) => r.schema.fieldNames.zip(r.toSeq).toMap)
    val tbl = Map("actions" -> new OnlineTable("userid", tsCol), "orders" -> new OnlineTable("userid", "ts"),
      "profile" -> new OnlineTable("userid", "pts"))
    val eng = new RequestEngine(spec, tbl)
    rows(orders).foreach(eng.insert("orders", _))
    rows(profile).foreach(eng.insert("profile", _))
    rows(prim).sortBy(r => num(r(tsCol))).map { r =>
      val out = eng.request(r)
      eng.insert("actions", r)
      (num(r("userid")).toLong, num(r(tsCol)).toLong) -> out
    }.toMap
  }

  private def assertAgrees(offline: DataFrame, spec: FeatureSpec, prim: DataFrame = actions,
                           tsCol: String = "ts"): Unit = {
    val on = online(spec, prim, tsCol)
    val rows = offline.collect()
    assert(rows.length == on.size)
    rows.foreach { r =>
      val o = on((r.getAs[Long]("userid"), r.getAs[Long](tsCol)))
      offline.columns.foreach { c =>
        assert(same(r.getAs[Any](c), o(c)), s"$c at ${r.getAs[Long]("userid")}/${r.getAs[Long](tsCol)}: " +
          s"offline ${r.getAs[Any](c)} online ${o(c)}")
      }
    }
  }

  test("one Window operator per window with features, not one per feature") {
    val out = UnifiedPlanner.offline(spark, tables, mixed)
    assert(windowOps(out) == mixed.windows.count(w => mixed.features.exists(_.window == w.name)))
  }

  test("output columns: primary columns, then features, then LAST JOIN columns") {
    val out = UnifiedPlanner.offline(spark, tables, mixed)
    assert(out.columns.toSeq == actions.columns.toSeq ++ mixed.features.map(_.name) ++ Seq("p_age", "p_city"))
    // the request engine serves windows keyed by the primary table's index
    val byUser = mixed.copy(windows = mixed.windows.filter(_.keyCol == "userid"),
      features = mixed.features.filter(_.window != "wshop"))
    assertAgrees(UnifiedPlanner.offline(spark, tables, byUser), byUser)
  }

  test("a feature named like an input column replaces it in place and is not read by its window") {
    val spec = FeatureSpec("actions",
      Seq(WindowDef("w", "userid", "ts", H), WindowDef("wu", "userid", "ts", 600000L, Seq("orders"))),
      Seq(Feature("cnt", FeatureFn.Count, "w"),
        Feature("price", FeatureFn.Sum("price"), "w"),
        Feature("mx", FeatureFn.Max("price"), "w"),
        Feature("ucnt", FeatureFn.Count, "wu")),
      Seq(LastJoinDef("profile", "userid", "pts", Seq("age"), "p_")))
    val out = UnifiedPlanner.offline(spark, tables, spec)
    assert(out.columns.toSeq == Seq("userid", "ts", "price", "category", "flag", "shop", "cnt", "mx", "ucnt", "p_age"))
    // mx is the largest input price of the frame, never the shadowing sum
    val r = out.collect().maxBy(_.getAs[Long]("cnt"))
    assert(r.getAs[Double]("mx") < r.getAs[Double]("price"))
    assertAgrees(out, spec)
  }

  test("feature names must be distinct") {
    val e = intercept[IllegalArgumentException] {
      FeatureSpec("actions", Seq(WindowDef("w", "userid", "ts", H)),
        Seq(Feature("f", FeatureFn.Count, "w"), Feature("g", FeatureFn.Count, "w"), Feature("f", FeatureFn.Sum("price"), "w")))
    }
    assert(e.getMessage.contains("distinct: f"))
  }

  test("the primary timestamp column comes from the windows, or must be given") {
    assert(mixed.tsCol == "ts")
    val split = Seq(WindowDef("a", "userid", "ts", H), WindowDef("b", "userid", "ets", H))
    intercept[IllegalArgumentException](FeatureSpec("actions", split, Nil))
    intercept[IllegalArgumentException](FeatureSpec("actions", Nil, Nil,
      Seq(LastJoinDef("profile", "userid", "pts", Seq("age")))))
    assert(FeatureSpec("actions", split, Nil, primaryTs = Some("ets")).tsCol == "ets")
  }

  test("LAST JOIN without windows matches at the primary timestamp in both engines") {
    import org.apache.spark.sql.functions.col
    val spec = FeatureSpec("actions", Nil, Nil,
      Seq(LastJoinDef("profile", "userid", "pts", Seq("age", "city"), "p_")), primaryTs = Some("ets"))
    val prim = actions.withColumnRenamed("ts", "ets")
    val out = UnifiedPlanner.offline(spark, tables + ("actions" -> prim), spec)
    assert(out.columns.toSeq == prim.columns.toSeq ++ Seq("p_age", "p_city"))
    assert(out.filter(col("ets") >= 2 * H + 8).collect().forall(_.getAs[Int]("p_age") > 40))
    assertAgrees(out, spec, prim, "ets")
  }
}
