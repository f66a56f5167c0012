package perfbench

import java.nio.file.{Files, Path}
import java.sql.DriverManager
import scala.jdk.CollectionConverters._
import scala.util.Random
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types._
import org.apache.spark.storage.StorageLevel
import repro.LocalGen
import repro.core._
import repro.core.online.{OnlineTable, RequestEngine}
import repro.core.online.WindowUnionStream.StreamTuple
import repro.storage.FieldType

/** `offline-batch`: `UnifiedPlanner.offline` on Spark local[nproc], result
  * drained to a no-op sink. Actions are the primary table, orders the
  * WINDOW UNION table, profile the LAST JOIN table. Windows: 1 h per user
  * with built-ins and the AggCore UDAFs, a 10 min WINDOW UNION, and a 1 h
  * window partitioned by a zipf-skewed shop column whose hottest shop owns
  * a large share of the rows.
  */
final class OfflineBatch(seed: Long, nproc: Int, outDir: Path) extends Workload {
  val name = "offline-batch"
  private val NActions = 10000
  private val NOrders = 5000
  private val NUsers = 500
  private val NShops = 300
  private val SpanMs = 86400000L
  private val PriceNullShare = 0.02
  private val Cats = Array("shoes", "books", "toys", "food", "tech")
  private val ATypes = Array("view", "click", "cart", "buy")

  private val localDir = outDir.resolve("spark-local").toAbsolutePath
  private val t0 = System.nanoTime()
  val spark: SparkSession = SparkSession.builder
    .master(s"local[$nproc]").appName("perfbench-offline")
    .config("spark.ui.enabled", "false")
    .config("spark.driver.host", "127.0.0.1")
    .config("spark.local.dir", localDir.toString)
    .config("spark.sql.warehouse.dir", outDir.resolve("spark-warehouse").toAbsolutePath.toString)
    .config("spark.sql.shuffle.partitions", (2 * nproc).toString)
    .getOrCreate()
  spark.sparkContext.setLogLevel("ERROR")
  override val startupS: Double = (System.nanoTime() - t0) / 1e9

  val spec: FeatureSpec = FeatureSpec(
    primary = "actions",
    windows = Seq(
      WindowDef("w1h", "userid", "ts", 3600000L),
      WindowDef("w10m", "userid", "ts", 600000L, Seq("orders")),
      WindowDef("wshop", "shop", "ts", 3600000L)),
    features = Seq(
      Feature("cnt_1h", FeatureFn.Count, "w1h"),
      Feature("sum_1h", FeatureFn.Sum("price"), "w1h"),
      Feature("avg_1h", FeatureFn.Avg("price"), "w1h"),
      Feature("min_1h", FeatureFn.Min("price"), "w1h"),
      Feature("max_1h", FeatureFn.Max("price"), "w1h"),
      Feature("dc_1h", FeatureFn.DistinctCount("category"), "w1h"),
      Feature("top_1h", FeatureFn.TopNFreq("category", 3), "w1h"),
      Feature("acw_1h", FeatureFn.AvgCateWhere("price", "flag", "category"), "w1h"),
      Feature("ew_1h", FeatureFn.EwAvg("price", 0.5), "w1h"),
      Feature("dd_1h", FeatureFn.Drawdown("price"), "w1h"),
      Feature("ucnt_10m", FeatureFn.Count, "w10m"),
      Feature("usum_10m", FeatureFn.Sum("price"), "w10m"),
      Feature("umax_10m", FeatureFn.Max("price"), "w10m"),
      Feature("scnt_1h", FeatureFn.Count, "wshop"),
      Feature("ssum_1h", FeatureFn.Sum("price"), "wshop"),
      Feature("savg_1h", FeatureFn.Avg("price"), "wshop")),
    lastJoins = Seq(LastJoinDef("profile", "userid", "pts", Seq("age", "city"), "p_")))

  // The benchmark's own rows (NaN price is null).
  private final case class Action(user: Long, ts: Long, atype: String, price: Double, cat: String, flag: Boolean, shop: Long)
  private final case class Order(user: Long, ts: Long, price: Double, cat: String)
  private final case class Profile(user: Long, pts: Long, age: Int, city: String)
  private var actions: IndexedSeq[Action] = _
  private var orders: IndexedSeq[Order] = _
  private var profiles: IndexedSeq[Profile] = _
  private var tables: Map[String, DataFrame] = _
  private var cachedBytes = 0.0

  private def price(rnd: Random): Double =
    if (rnd.nextDouble() < PriceNullShare) Double.NaN else math.round((1 + rnd.nextDouble() * 200) * 100) / 100.0
  private def p(d: Double): Any = if (d.isNaN) null else d

  def setup(): Unit = {
    dropState()
    val rnd = new Random(seed)
    val shops = new LocalGen.Zipf(NShops, 1.2, seed + 1)
    // ts unique across both tables: actions even, orders odd
    val stepA = SpanMs / NActions / 2
    actions = (0 until NActions).map { i =>
      Action(1 + rnd.nextInt(NUsers), 2 * (i * stepA + rnd.nextInt(stepA.toInt)),
        ATypes(rnd.nextInt(ATypes.length)), price(rnd), Cats(rnd.nextInt(Cats.length)),
        rnd.nextBoolean(), shops.next().toLong)
    }
    val stepO = SpanMs / NOrders / 2
    orders = (0 until NOrders).map { i =>
      Order(1 + rnd.nextInt(NUsers), 2 * (i * stepO + rnd.nextInt(stepO.toInt)) + 1, price(rnd), Cats(rnd.nextInt(Cats.length)))
    }
    profiles = (1 to NUsers).flatMap { u =>
      (0 until 3).map(j => Profile(u, j * SpanMs / 3 + 2 * rnd.nextInt(1000000), 18 + rnd.nextInt(60), s"city${rnd.nextInt(40)}"))
    }
    val aSchema = StructType(Seq(StructField("userid", LongType), StructField("ts", LongType),
      StructField("atype", StringType), StructField("price", DoubleType), StructField("category", StringType),
      StructField("flag", BooleanType), StructField("shop", LongType)))
    val oSchema = StructType(Seq(StructField("userid", LongType), StructField("ts", LongType),
      StructField("price", DoubleType), StructField("category", StringType)))
    val pSchema = StructType(Seq(StructField("userid", LongType), StructField("pts", LongType),
      StructField("age", IntegerType), StructField("city", StringType)))
    def df(rows: Seq[Row], s: StructType): DataFrame = {
      val d = spark.createDataFrame(rows.asJava, s).persist(StorageLevel.MEMORY_ONLY)
      d.count(); d
    }
    tables = Map(
      "actions" -> df(actions.map(a => Row(a.user, a.ts, a.atype, p(a.price), a.cat, a.flag, a.shop)), aSchema),
      "orders" -> df(orders.map(o => Row(o.user, o.ts, p(o.price), o.cat)), oSchema),
      "profile" -> df(profiles.map(q => Row(q.user, q.pts, q.age, q.city)), pSchema))
    cachedBytes = spark.sparkContext.getRDDStorageInfo.map(_.memSize.toDouble).sum
  }

  def dropState(): Unit = {
    if (tables != null) tables.values.foreach(_.unpersist(blocking = true))
    tables = null
  }
  def rowsHeld: Long = NActions.toLong + NOrders + 3L * NUsers
  override def storeBytesPerRow: Option[Double] = Some(cachedBytes / rowsHeld)

  /** Plan, execute and drain one job; returns (plan seconds, total seconds). */
  private def job(): (Double, Double) = {
    val t0 = System.nanoTime()
    val df = UnifiedPlanner.offline(spark, tables, spec)
    df.queryExecution.executedPlan
    val t1 = System.nanoTime()
    df.write.format("noop").mode("overwrite").save()
    ((t1 - t0) / 1e9, (System.nanoTime() - t0) / 1e9)
  }

  private var checkUsers: Seq[Long] = Nil
  private var checkRows: Array[Row] = Array.empty

  /** The warm-up job is the check job: every feature of a sample of users,
    * collected for [[check]].
    */
  def warmup(seconds: Double): Unit = {
    val rnd = new Random(seed ^ 0x5eed)
    checkUsers = Seq.fill(25)(1L + rnd.nextInt(NUsers)).distinct
    checkRows = UnifiedPlanner.offline(spark, tables, spec).filter(col("userid").isin(checkUsers: _*)).collect()
  }

  def measure(seconds: Double, out: Outcomes): Measured = {
    val times = scala.collection.mutable.ArrayBuffer.empty[Double]
    val end = System.nanoTime() + (seconds * 1e9).toLong
    while (times.size < 3 || System.nanoTime() < end) {
      times += job()._2 * 1e3
      out.ok()
    }
    val p50 = Metric.ofMedian(times, "ms", s"plan, execute and drain one job on local[$nproc]")
    Measured(p50,
      Metric(NActions / (p50.value / 1e3), "1/s", times.size, p50.spread, s"$NActions primary rows / median job time"),
      Seq("offline_jobs" -> Metric.single(times.size.toDouble, "count", times.map(t => f"$t%.0f").mkString("ms: ", ", ", ""))))
  }

  override def traceExtras(seconds: Double): Seq[(String, Metric)] = {
    val listener = new SparkStages
    spark.sparkContext.addSparkListener(listener)
    val runs = (1 to 2).map { _ =>
      listener.reset()
      val (planS, totalS) = job()
      (planS, totalS, listener.summary(spark.sparkContext))
    }
    spark.sparkContext.removeSparkListener(listener)
    val (planS, totalS, stages) = runs.last
    Seq("offline.plan_s" -> Metric.single(planS, "s", "UnifiedPlanner.offline plus physical planning"),
        "offline.job_s" -> Metric.single(totalS, "s", "the job the stage figures come from")) ++ stages
  }

  // ------------------------------------------------------------ reference

  /** Check the features of a sample of users: the SQL-expressible ones
    * against DuckDB over the same rows, the UDAF ones against direct folds.
    */
  def check(out: Outcomes): Unit = {
    val users = checkUsers
    val got = checkRows
    val sqlCols = Seq("cnt_1h", "sum_1h", "avg_1h", "min_1h", "max_1h", "ucnt_10m", "usum_10m", "umax_10m",
      "scnt_1h", "ssum_1h", "savg_1h", "p_age", "p_city")
    val duck = duckdb(users, sqlCols)
    val byUser = actions.groupBy(_.user).view.mapValues(_.sortBy(_.ts)).toMap
    got.foreach { r =>
      val u = r.getAs[Long]("userid"); val t = r.getAs[Long]("ts")
      val frame = byUser(u).filter(a => a.ts >= t - 3600000L && a.ts <= t)
      val prices: Seq[java.lang.Double] = frame.map(a => if (a.price.isNaN) null else java.lang.Double.valueOf(a.price))
      val cats = frame.map(_.cat)
      val expected: Map[String, Any] = duck.getOrElse((u, t), Map.empty[String, Any]) ++ Map(
        "dc_1h" -> Ref.distinctCount(cats),
        "top_1h" -> Ref.topN(cats, 3),
        "acw_1h" -> Ref.avgCateWhere(prices, frame.map(a => java.lang.Boolean.valueOf(a.flag)), cats),
        "ew_1h" -> Ref.ewAvg(prices, 0.5),
        "dd_1h" -> Ref.drawdown(prices))
      val bad = spec.features.map(_.name).concat(Seq("p_age", "p_city")).filterNot { f =>
        expected.contains(f) && Check.same(r.getAs[Any](f), expected(f))
      }
      if (bad.isEmpty) out.ok()
      else out.fail(s"mismatch: feature ${bad.head}",
        s"user $u ts $t: spark ${r.getAs[Any](bad.head)} expected ${expected.getOrElse(bad.head, "<no DuckDB row>")}" +
          (if (bad.size > 1) s" (+${bad.size - 1} more)" else ""), knownDefect = false)
    }
    if (got.length != actions.count(a => users.contains(a.user)))
      out.fail("row count: job output rows for the sampled users", s"${got.length} rows", knownDefect = false)
  }

  private def duckdb(users: Seq[Long], cols: Seq[String]): Map[(Long, Long), Map[String, Any]] = {
    val dir = Files.createTempDirectory(outDir, "duckdb")
    def csv(name: String, header: String, lines: Iterator[String]): String = {
      val f = dir.resolve(s"$name.csv")
      Files.write(f, (Iterator(header) ++ lines).toSeq.asJava)
      f.toAbsolutePath.toString
    }
    def n(d: Double): String = if (d.isNaN) "" else d.toString
    val a = csv("actions", "userid,ts,price,category,flag,shop",
      actions.iterator.map(x => s"${x.user},${x.ts},${n(x.price)},${x.cat},${x.flag},${x.shop}"))
    val o = csv("orders", "userid,ts,price", orders.iterator.map(x => s"${x.user},${x.ts},${n(x.price)}"))
    val pr = csv("profile", "userid,pts,age,city", profiles.iterator.map(x => s"${x.user},${x.pts},${x.age},${x.city}"))
    Class.forName("org.duckdb.DuckDBDriver")
    val conn = DriverManager.getConnection("jdbc:duckdb:")
    try {
      val st = conn.createStatement()
      st.execute(s"CREATE TABLE actions AS SELECT * FROM read_csv('$a', header = true, columns = " +
        "{'userid': 'BIGINT', 'ts': 'BIGINT', 'price': 'DOUBLE', 'category': 'VARCHAR', 'flag': 'BOOLEAN', 'shop': 'BIGINT'})")
      st.execute(s"CREATE TABLE orders AS SELECT * FROM read_csv('$o', header = true, columns = " +
        "{'userid': 'BIGINT', 'ts': 'BIGINT', 'price': 'DOUBLE'})")
      st.execute(s"CREATE TABLE profile AS SELECT * FROM read_csv('$pr', header = true, columns = " +
        "{'userid': 'BIGINT', 'pts': 'BIGINT', 'age': 'INTEGER', 'city': 'VARCHAR'})")
      val sql =
        s"""WITH w1 AS (
           |  SELECT userid, ts, count(*) OVER w AS cnt_1h, sum(price) OVER w AS sum_1h, avg(price) OVER w AS avg_1h,
           |         min(price) OVER w AS min_1h, max(price) OVER w AS max_1h
           |  FROM actions WINDOW w AS (PARTITION BY userid ORDER BY ts RANGE BETWEEN 3600000 PRECEDING AND CURRENT ROW)),
           |u AS (SELECT userid, ts, price, 1 AS is_primary FROM actions UNION ALL SELECT userid, ts, price, 0 FROM orders),
           |w2 AS (
           |  SELECT userid, ts, is_primary, count(*) OVER w AS ucnt_10m, sum(price) OVER w AS usum_10m, max(price) OVER w AS umax_10m
           |  FROM u WINDOW w AS (PARTITION BY userid ORDER BY ts RANGE BETWEEN 600000 PRECEDING AND CURRENT ROW)),
           |w3 AS (
           |  SELECT userid, ts, count(*) OVER w AS scnt_1h, sum(price) OVER w AS ssum_1h, avg(price) OVER w AS savg_1h
           |  FROM actions WINDOW w AS (PARTITION BY shop ORDER BY ts RANGE BETWEEN 3600000 PRECEDING AND CURRENT ROW)),
           |lj AS (
           |  SELECT a.userid, a.ts, p.age AS p_age, p.city AS p_city
           |  FROM actions a ASOF LEFT JOIN profile p ON a.userid = p.userid AND a.ts >= p.pts)
           |SELECT w1.userid, w1.ts, ${cols.mkString(", ")}
           |FROM w1 JOIN w2 ON w1.userid = w2.userid AND w1.ts = w2.ts AND w2.is_primary = 1
           |JOIN w3 ON w1.userid = w3.userid AND w1.ts = w3.ts
           |JOIN lj ON w1.userid = lj.userid AND w1.ts = lj.ts
           |WHERE w1.userid IN (${users.mkString(", ")})""".stripMargin
      val rs = st.executeQuery(sql)
      val res = scala.collection.mutable.HashMap.empty[(Long, Long), Map[String, Any]]
      while (rs.next()) {
        res((rs.getLong("userid"), rs.getLong("ts"))) = cols.map(c => c -> rs.getObject(c)).toMap
      }
      res.toMap
    } finally {
      conn.close()
      Files.list(dir).iterator().asScala.foreach(Files.delete)
      Files.delete(dir)
    }
  }

  def layerInput: LayerInput = {
    // Online request mode of the same deployment (the per-user windows and
    // the LAST JOIN; the shop window is keyed by a column the primary
    // table is not indexed on, which the request engine does not serve).
    val onlineSpec = spec.copy(windows = spec.windows.filter(_.keyCol == "userid"),
      features = spec.features.filter(_.window != "wshop"))
    val tbl = Map("actions" -> new OnlineTable("userid", "ts"), "orders" -> new OnlineTable("userid", "ts"),
      "profile" -> new OnlineTable("userid", "pts"))
    val engine = new RequestEngine(onlineSpec, tbl)
    def aRow(a: Action): Map[String, Any] = Map("userid" -> a.user, "ts" -> a.ts, "atype" -> a.atype,
      "price" -> p(a.price), "category" -> a.cat, "flag" -> a.flag, "shop" -> a.shop)
    val rows = actions.sortBy(a => (a.user, a.ts)).map(aRow)
    rows.foreach(engine.insert("actions", _))
    orders.sortBy(o => (o.user, o.ts)).foreach(o =>
      engine.insert("orders", Map("userid" -> o.user, "ts" -> o.ts, "price" -> p(o.price), "category" -> o.cat)))
    profiles.foreach(q => engine.insert("profile", Map("userid" -> q.user, "pts" -> q.pts, "age" -> q.age, "city" -> q.city)))
    val rnd = new Random(seed + 99)
    val reqs = (0 until 3000).map(_ => aRow(actions(rnd.nextInt(NActions))))
    val hotUser = actions.groupBy(_.user).maxBy(_._2.size)._1
    val coldUser = actions.groupBy(_.user).minBy(_._2.size)._1
    val stream = actions.map(a => StreamTuple(0, a.user.toString, a.ts, if (a.price.isNaN) 0.0 else a.price))
    LayerInput(onlineSpec, tbl, engine, Map.empty, reqs, "profile", "userid", "price",
      r => r.getOrElse("category", null).asInstanceOf[String],
      r => r.getOrElse("flag", null).asInstanceOf[java.lang.Boolean],
      rows, IndexedSeq("userid" -> FieldType.LongT, "ts" -> FieldType.TimestampT, "atype" -> FieldType.StringT,
        "price" -> FieldType.DoubleT, "category" -> FieldType.StringT, "flag" -> FieldType.BoolT, "shop" -> FieldType.LongT),
      stream, 3600000L, hot = (hotUser.toString, SpanMs), cold = (coldUser.toString, SpanMs))
  }

  def describe: Seq[(String, String)] = Seq(
    "rows" -> s"actions $NActions, orders $NOrders, profile ${3 * NUsers}; $NUsers users, $NShops shops zipf(1.2)",
    "spark_master" -> spark.sparkContext.master,
    "shuffle_partitions" -> spark.conf.get("spark.sql.shuffle.partitions"))

  override def close(): Unit = spark.stop()
}
