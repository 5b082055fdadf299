// Tests for the parallel experiment engine: executor task execution and
// exception propagation, grid expansion and per-task seed determinism,
// sweep bit-identity across thread counts, and order-independent
// collector merging.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "engine/collector.hpp"
#include "engine/executor.hpp"
#include "engine/experiment.hpp"
#include "engine/sweep.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace cisp::engine {
namespace {

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

TEST(Executor, RunsSubmittedTasksAndReturnsValues) {
  Executor pool(3);
  EXPECT_EQ(pool.thread_count(), 3u);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([i] { return i * i; }));
  }
  for (int i = 0; i < 100; ++i) EXPECT_EQ(futures[i].get(), i * i);
}

TEST(Executor, ZeroMeansHardwareConcurrency) {
  Executor pool(0);
  EXPECT_GE(pool.thread_count(), 1u);
  EXPECT_EQ(pool.thread_count(), default_thread_count());
}

TEST(Executor, ExceptionPropagatesThroughFutureWithoutDeadlock) {
  Executor pool(2);
  auto bad = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  auto good = pool.submit([] { return 7; });
  EXPECT_THROW(bad.get(), std::runtime_error);
  // The pool survives a throwing task: later tasks still run.
  EXPECT_EQ(good.get(), 7);
  auto after = pool.submit([] { return 11; });
  EXPECT_EQ(after.get(), 11);
}

TEST(Executor, DestructorDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  {
    Executor pool(1);
    for (int i = 0; i < 50; ++i) {
      (void)pool.submit([&ran] { ++ran; });
    }
  }  // destructor joins after the queue drains
  EXPECT_EQ(ran.load(), 50);
}

// ---------------------------------------------------------------------------
// Grid
// ---------------------------------------------------------------------------

TEST(Grid, SizeIsProductOfAxesTimesReplicates) {
  Grid grid;
  grid.axis("a", {1.0, 2.0, 3.0}).axis("b", {10.0, 20.0}).replicates(4);
  EXPECT_EQ(grid.size(), 3u * 2u * 4u);
}

TEST(Grid, PointExpansionCoversEveryCombinationOnce) {
  Grid grid;
  grid.axis("a", {1.0, 2.0, 3.0}).axis("b", {10.0, 20.0}).replicates(2);
  std::vector<int> seen(grid.size(), 0);
  for (std::size_t t = 0; t < grid.size(); ++t) {
    const Point p = grid.point(t);
    EXPECT_EQ(p.task_index(), t);
    const std::size_t key =
        (p.index("a") * 2 + p.index("b")) * 2 +
        static_cast<std::size_t>(p.replicate());
    ++seen[key];
    EXPECT_EQ(p.value("a"), grid.axes()[0].values[p.index("a")]);
    EXPECT_EQ(p.value("b"), grid.axes()[1].values[p.index("b")]);
  }
  for (const int count : seen) EXPECT_EQ(count, 1);
}

TEST(Grid, RejectsBadAxes) {
  Grid grid;
  grid.axis("a", {1.0});
  EXPECT_THROW(grid.axis("a", {2.0}), Error);   // duplicate name
  EXPECT_THROW(grid.axis("", {2.0}), Error);    // empty name
  EXPECT_THROW(grid.axis("b", {}), Error);      // empty values
  EXPECT_THROW(grid.replicates(0), Error);
  EXPECT_THROW(grid.point(grid.size()), Error); // out of range
  EXPECT_THROW((void)grid.point(0).value("nope"), Error);
}

TEST(Grid, PointSharesAxesOwnershipSoItOutlivesTheGrid) {
  // The historical hazard: Point stored a raw pointer into its Grid, so
  // `grid.point(i)` on a temporary dangled silently. Points now share
  // ownership of the axes.
  const Point p = [] {
    Grid grid;
    grid.axis("x", {1.0, 2.0, 3.0});
    return grid.point(2);
  }();
  EXPECT_EQ(p.value("x"), 3.0);
}

TEST(Grid, MutatingGridAfterPointIsCopyOnWrite) {
  Grid grid;
  grid.axis("x", {1.0});
  const Point p = grid.point(0);
  grid.axis("y", {5.0, 6.0});  // must not change what p observes
  EXPECT_EQ(p.value("x"), 1.0);
  EXPECT_THROW((void)p.value("y"), Error);
  EXPECT_EQ(grid.size(), 2u);
}

TEST(Grid, TaskSeedsAreStableAndDistinct) {
  Grid a;
  a.index_axis("i", 64).base_seed(42);
  Grid b;
  b.index_axis("i", 64).base_seed(42);
  std::vector<std::uint64_t> seeds;
  for (std::size_t t = 0; t < a.size(); ++t) {
    EXPECT_EQ(a.task_seed(t), b.task_seed(t));  // stable across instances
    seeds.push_back(a.task_seed(t));
  }
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end());
  Grid c;
  c.index_axis("i", 64).base_seed(43);
  EXPECT_NE(a.task_seed(0), c.task_seed(0));  // base seed matters
}

// ---------------------------------------------------------------------------
// run_sweep
// ---------------------------------------------------------------------------

/// A stochastic task: result depends only on the per-task seed.
double monte_carlo_task(const Point& point) {
  Rng rng(point.seed());
  double acc = point.value("x");
  for (int i = 0; i < 1000; ++i) acc += rng.normal();
  return acc;
}

TEST(Sweep, SameSeedDifferentThreadCountsBitIdentical) {
  Grid grid;
  grid.axis("x", {0.0, 1.0, 2.0, 3.0, 4.0}).replicates(8).base_seed(7);
  const auto t1 = run_sweep(grid, monte_carlo_task, {.threads = 1});
  const auto t2 = run_sweep(grid, monte_carlo_task, {.threads = 2});
  const auto t8 = run_sweep(grid, monte_carlo_task, {.threads = 8});
  EXPECT_EQ(t1.per_task, t2.per_task);
  EXPECT_EQ(t1.per_task, t8.per_task);
}

TEST(Sweep, ChunkedSubmissionMatchesUnchunkedBitIdentical) {
  // Chunking only groups adjacent task indices into one pool submission
  // (the lever for skewed task costs); results are keyed by task index and
  // must not move. Cover a chunk that divides the grid, one that doesn't,
  // and one bigger than the whole grid.
  Grid grid;
  grid.axis("x", {0.0, 1.0, 2.0, 3.0, 4.0}).replicates(8).base_seed(7);
  const auto plain = run_sweep(grid, monte_carlo_task, {.threads = 2});
  for (const std::size_t chunk : {2u, 7u, 1000u}) {
    const auto chunked = run_sweep(grid, monte_carlo_task,
                                   {.threads = 2, .chunk = chunk});
    EXPECT_EQ(plain.per_task, chunked.per_task) << "chunk=" << chunk;
  }
}

TEST(Executor, ParallelForCoversEveryIndexOnceAtAnyGrain) {
  for (const std::size_t grain : {0u, 1u, 3u, 100u}) {
    Executor executor(3);
    std::vector<int> hits(37, 0);
    parallel_for(executor, hits.size(),
                 [&](std::size_t i) { ++hits[i]; }, grain);
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i], 1) << "grain=" << grain << " i=" << i;
    }
  }
}

TEST(Executor, ParallelForPropagatesTaskExceptions) {
  Executor executor(2);
  std::vector<int> hits(16, 0);
  EXPECT_THROW(
      parallel_for(executor, hits.size(),
                   [&](std::size_t i) {
                     if (i == 5) throw std::runtime_error("boom");
                     ++hits[i];
                   },
                   /*grain=*/1),
      std::runtime_error);
  EXPECT_EQ(hits[4], 1);  // other chunks still ran
}

TEST(Sweep, ReplicatesDiffer) {
  Grid grid;
  grid.axis("x", {0.0}).replicates(2).base_seed(7);
  const auto result = run_sweep(grid, monte_carlo_task, {.threads = 2});
  EXPECT_NE(result.at(0), result.at(1));  // distinct per-replicate seeds
}

TEST(Sweep, BoolResultsAreRaceFreeAndBitIdentical) {
  // R = bool would race through std::vector<bool> bit-packing if results
  // were written directly into the output vector; per-slot optionals keep
  // every write on a distinct object.
  Grid grid;
  grid.index_axis("i", 257).base_seed(5);
  const auto predicate = [](const Point& point) {
    Rng rng(point.seed());
    return rng.uniform() < 0.5;
  };
  const auto t1 = run_sweep(grid, predicate, {.threads = 1});
  const auto t8 = run_sweep(grid, predicate, {.threads = 8});
  EXPECT_EQ(t1.per_task, t8.per_task);
}

TEST(Sweep, ResultsNeedOnlyMoveConstruction) {
  struct NoDefault {
    explicit NoDefault(std::size_t v) : value(v) {}
    std::size_t value;
  };
  Grid grid;
  grid.index_axis("i", 16);
  const auto result = run_sweep(
      grid, [](const Point& point) { return NoDefault(point.task_index()); },
      {.threads = 4});
  for (std::size_t t = 0; t < grid.size(); ++t) {
    EXPECT_EQ(result.at(t).value, t);
  }
}

TEST(Sweep, ThrowingTaskPropagatesWithoutDeadlock) {
  Grid grid;
  grid.index_axis("i", 32);
  std::atomic<int> completed{0};
  const auto run = [&] {
    (void)run_sweep(
        grid,
        [&](const Point& point) -> int {
          if (point.task_index() == 5) throw Error("task 5 exploded");
          ++completed;
          return 0;
        },
        {.threads = 4});
  };
  EXPECT_THROW(run(), Error);
  // Every non-throwing task still ran: the pool drained cleanly.
  EXPECT_EQ(completed.load(), 31);
}

TEST(Sweep, FirstErrorByTaskIndexWins) {
  Grid grid;
  grid.index_axis("i", 16);
  try {
    (void)run_sweep(
        grid,
        [](const Point& point) -> int {
          if (point.task_index() == 3) throw Error("three");
          if (point.task_index() == 12) throw Error("twelve");
          return 0;
        },
        {.threads = 8});
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("three"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Collectors
// ---------------------------------------------------------------------------

TEST(Collector, SlotCollectorFoldsInIndexOrder) {
  SlotCollector<std::vector<int>> collector(3);
  collector.slot(2).push_back(30);
  collector.slot(0).push_back(10);
  collector.slot(1).push_back(20);
  const auto merged = collector.merge(
      std::vector<int>{},
      [](std::vector<int>& acc, const std::vector<int>& s) {
        acc.insert(acc.end(), s.begin(), s.end());
      });
  EXPECT_EQ(merged, (std::vector<int>{10, 20, 30}));
}

// ---------------------------------------------------------------------------
// Experiment registry
// ---------------------------------------------------------------------------

TEST(Experiments, RegistryRunsByNameAndLists) {
  ExperimentRegistry registry;
  int runs = 0;
  registry.add({.name = "unit_exp_b", .description = "second", .tags = {},
                .params = {}},
               [&](const ExperimentContext&) { return ResultSet{}; });
  registry.add({.name = "unit_exp_a", .description = "first", .tags = {},
                .params = {}},
               [&](const ExperimentContext& ctx) {
                 EXPECT_EQ(ctx.threads, 2u);
                 EXPECT_TRUE(ctx.fast);
                 EXPECT_EQ(ctx.params.real("x", 1.5), 2.5);
                 ++runs;
                 ResultSet set;
                 set.add_table("t", "title", {"c"}).row({7});
                 return set;
               });
  EXPECT_TRUE(registry.contains("unit_exp_a"));
  EXPECT_FALSE(registry.contains("missing"));

  ExperimentContext ctx;
  ctx.threads = 2;
  ctx.fast = true;
  ctx.params.set("x", "2.5");
  const ResultSet result = registry.run("unit_exp_a", ctx);
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(result.table("t").at(0, 0).as_int(), 7);

  const auto infos = registry.list();
  ASSERT_EQ(infos.size(), 2u);
  EXPECT_EQ(infos[0].name, "unit_exp_a");  // sorted
  EXPECT_EQ(infos[1].name, "unit_exp_b");

  EXPECT_THROW((void)registry.run("missing", ctx), Error);
}

TEST(Experiments, DuplicateRegistrationSurfacesAtLookupNotAdd) {
  ExperimentRegistry registry;
  registry.add({.name = "dup_exp",
                .description = "first registration",
                .tags = {},
                .params = {}},
               [](const ExperimentContext&) { return ResultSet{}; });
  // Registering the same name again must NOT throw: during static init a
  // throw would be a silent std::terminate.
  registry.add({.name = "dup_exp",
                .description = "second registration",
                .tags = {},
                .params = {}},
               [](const ExperimentContext&) { return ResultSet{}; });
  try {
    (void)registry.list();
    FAIL() << "expected duplicate diagnosis at first lookup";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("dup_exp"), std::string::npos);
    EXPECT_NE(what.find("first registration"), std::string::npos);
    EXPECT_NE(what.find("second registration"), std::string::npos);
  }
  EXPECT_THROW((void)registry.contains("dup_exp"), Error);
}

TEST(Experiments, GlobMatching) {
  EXPECT_TRUE(glob_match("fig04*", "fig04a_budget_sweep"));
  EXPECT_TRUE(glob_match("*", "anything"));
  EXPECT_TRUE(glob_match("fig0?_weather", "fig07_weather"));
  EXPECT_TRUE(glob_match("exact", "exact"));
  EXPECT_FALSE(glob_match("fig04*", "fig05_perturbation"));
  EXPECT_FALSE(glob_match("fig0?_weather", "fig07_weathers"));
  EXPECT_FALSE(glob_match("", "x"));
  EXPECT_TRUE(glob_match("*ablation*", "the_ablation_suite"));
}

TEST(Experiments, BenchExperimentsSelfRegister) {
  // The bench binaries register into the process-wide instance; within the
  // test binary nothing is registered, but the instance must exist and be
  // stable across calls.
  EXPECT_EQ(&ExperimentRegistry::instance(), &ExperimentRegistry::instance());
}

}  // namespace
}  // namespace cisp::engine
