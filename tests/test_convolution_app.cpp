// End-to-end convolution benchmark: distributed result equals the serial
// reference, sections appear with the right instance counts, and the
// modelled mode exercises the identical control flow.
#include <gtest/gtest.h>

#include "apps/convolution/convolution.hpp"
#include "core/sections/runtime.hpp"
#include "mpisim/session.hpp"
#include "profiler/section_profiler.hpp"
#include "support/digest.hpp"

#include "temp_path.hpp"

namespace {

using namespace mpisect;
using namespace mpisect::apps::conv;
using mpisim::MachineModel;
using mpisim::World;
using mpisim::WorldOptions;

WorldOptions ideal_options() {
  WorldOptions opts;
  opts.machine = MachineModel::ideal();
  return opts;
}

ConvolutionConfig small_config(int steps, bool full) {
  ConvolutionConfig cfg;
  cfg.width = 24;
  cfg.height = 18;
  cfg.steps = steps;
  cfg.full_fidelity = full;
  return cfg;
}

class ConvolutionRankSweep : public ::testing::TestWithParam<int> {};

TEST_P(ConvolutionRankSweep, DistributedMatchesSerialReference) {
  const int p = GetParam();
  const int steps = 5;
  World world(p, ideal_options());
  sections::SectionRuntime::install(world);
  ConvolutionApp app(small_config(steps, /*full=*/true));
  world.run(std::ref(app));
  ASSERT_TRUE(app.has_result());

  // Serial reference on the same "loaded" image (PPM round-trip included).
  const Image loaded =
      decode_ppm(encode_ppm(make_test_image(24, 18, app.config().image_seed)));
  const Image expected =
      convolve_reference(loaded, steps, Kernel3x3::mean_filter());
  EXPECT_LT(app.result().mean_abs_diff(expected), 1e-12)
      << "distributed stencil diverged from the serial reference at p=" << p;
}

INSTANTIATE_TEST_SUITE_P(RankCounts, ConvolutionRankSweep,
                         ::testing::Values(1, 2, 3, 4, 7, 9));

TEST(ConvolutionSections, AllPhasesObservedWithCorrectInstanceCounts) {
  const int p = 4;
  const int steps = 7;
  World world(p, ideal_options());
  sections::SectionRuntime::install(world);
  profiler::SectionProfiler prof(world);
  ConvolutionApp app(small_config(steps, /*full=*/true));
  world.run(std::ref(app));

  EXPECT_EQ(prof.totals_for(labels::kLoad).instances, 1);
  EXPECT_EQ(prof.totals_for(labels::kScatter).instances, 1);
  EXPECT_EQ(prof.totals_for(labels::kHalo).instances, steps);
  EXPECT_EQ(prof.totals_for(labels::kConvolve).instances, steps);
  EXPECT_EQ(prof.totals_for(labels::kGather).instances, 1);
  EXPECT_EQ(prof.totals_for(labels::kStore).instances, 1);
  for (const char* label :
       {labels::kLoad, labels::kScatter, labels::kHalo, labels::kConvolve,
        labels::kGather, labels::kStore}) {
    EXPECT_EQ(prof.totals_for(label).ranks_seen, p) << label;
  }
}

TEST(ConvolutionSections, ConvolveTimeDominatedByComputeCharge) {
  World world(2, ideal_options());
  sections::SectionRuntime::install(world);
  profiler::SectionProfiler prof(world);
  ConvolutionConfig cfg = small_config(10, /*full=*/false);
  ConvolutionApp app(cfg);
  world.run(std::ref(app));
  const auto convolve = prof.totals_for(labels::kConvolve);
  // Charge model: rows*width*flops_per_pixel per step per rank at 1 GF/s.
  const double expected =
      (18.0 / 2.0) * 24.0 * cfg.flops_per_pixel * 10.0 / 1e9;
  EXPECT_NEAR(convolve.mean_per_process, expected, expected * 0.05);
}

TEST(ConvolutionModes, ModeledAndFullShareSectionStructure) {
  const int p = 3;
  const int steps = 4;
  auto run_mode = [&](bool full) {
    World world(p, ideal_options());
    sections::SectionRuntime::install(world);
    profiler::SectionProfiler prof(world);
    ConvolutionApp app(small_config(steps, full));
    world.run(std::ref(app));
    std::vector<std::pair<std::string, long>> shape;
    for (const auto& t : prof.totals()) {
      shape.emplace_back(t.label, t.instances);
    }
    return shape;
  };
  EXPECT_EQ(run_mode(true), run_mode(false));
}

TEST(ConvolutionModes, RootDoesSequentialIo) {
  World world(4, ideal_options());
  sections::SectionRuntime::install(world);
  profiler::SectionProfiler prof(world);
  ConvolutionApp app(small_config(2, /*full=*/false));
  world.run(std::ref(app));
  const auto load = prof.totals_for(labels::kLoad);
  // Rank 0 pays the I/O; other ranks pass straight through, so the mean is
  // dominated by a single rank's contribution.
  const auto* r0 = prof.rank_stats(0, load.comm_context, labels::kLoad);
  const auto* r3 = prof.rank_stats(3, load.comm_context, labels::kLoad);
  ASSERT_NE(r0, nullptr);
  ASSERT_NE(r3, nullptr);
  EXPECT_GT(r0->inclusive, 1e-6);
  EXPECT_LT(r3->inclusive, r0->inclusive * 0.01);
}

TEST(ConvolutionScaling, MoreRanksLessConvolveTimePerProcess) {
  auto convolve_time = [](int p) {
    World world(p, ideal_options());
    sections::SectionRuntime::install(world);
    profiler::SectionProfiler prof(world);
    ConvolutionConfig cfg;
    cfg.width = 64;
    cfg.height = 64;
    cfg.steps = 3;
    cfg.full_fidelity = false;
    ConvolutionApp app(cfg);
    world.run(std::ref(app));
    return prof.totals_for(labels::kConvolve).mean_per_process;
  };
  const double t1 = convolve_time(1);
  const double t4 = convolve_time(4);
  const double t16 = convolve_time(16);
  EXPECT_NEAR(t4, t1 / 4.0, t1 * 0.05);
  EXPECT_NEAR(t16, t1 / 16.0, t1 * 0.05);
}

TEST(ConvolutionScaling, HaloAbsentForSingleRank) {
  World world(1, ideal_options());
  sections::SectionRuntime::install(world);
  profiler::SectionProfiler prof(world);
  ConvolutionApp app(small_config(3, /*full=*/true));
  world.run(std::ref(app));
  const auto halo = prof.totals_for(labels::kHalo);
  EXPECT_EQ(halo.instances, 3);
  EXPECT_EQ(halo.mpi_calls, 0);  // no neighbors, no messages
}

TEST(ConvolutionScale, Modeled2048RankTimesArePinned) {
  // Virtual time is a pure function of the model: a modeled 2048-rank run
  // has one set of final times and section totals, whatever the scheduler
  // or the host-side data structures. The digest was taken before the
  // v-collective counts, section lookup, scheduler notify and send-
  // sequence table were optimized; any change to it is a model change.
  constexpr int kRanks = 2048;
  const auto world = mpisim::Session(kRanks)
                         .world_builder()
                         .machine(MachineModel::nehalem_cluster())
                         .seed(7)
                         .build();
  sections::SectionRuntime::install(*world);
  profiler::SectionProfiler prof(*world);
  ConvolutionConfig cfg;
  cfg.width = 256;
  cfg.height = kRanks * 2;
  cfg.steps = 5;
  cfg.full_fidelity = false;
  ConvolutionApp app(cfg);
  world->run(std::ref(app));

  const std::vector<double>& ft = world->final_times();
  ASSERT_EQ(ft.size(), static_cast<std::size_t>(kRanks));
  std::uint64_t h = support::fnv1a64(
      {reinterpret_cast<const std::uint8_t*>(ft.data()),
       ft.size() * sizeof(double)});
  const auto mix = [&h](const void* p, std::size_t n) {
    h = support::fnv1a64({static_cast<const std::uint8_t*>(p), n}, h);
  };
  for (const auto& t : prof.totals()) {
    mix(t.label.data(), t.label.size());
    mix(&t.instances, sizeof t.instances);
    mix(&t.ranks_seen, sizeof t.ranks_seen);
    mix(&t.total_time, sizeof t.total_time);
    mix(&t.exclusive_total, sizeof t.exclusive_total);
    mix(&t.mpi_time, sizeof t.mpi_time);
    mix(&t.mpi_calls, sizeof t.mpi_calls);
  }
  EXPECT_EQ(support::format_digest(h), "mpst1-227e2b8e4cd4232b");
}

TEST(ConvolutionStore, WritesRequestedFile) {
  World world(2, ideal_options());
  sections::SectionRuntime::install(world);
  ConvolutionConfig cfg = small_config(1, /*full=*/true);
  cfg.store_path =
      testutil::unique_temp_path("mpisect_conv_test", ".ppm");
  ConvolutionApp app(cfg);
  world.run(std::ref(app));
  FILE* f = std::fopen(cfg.store_path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char magic[2] = {};
  ASSERT_EQ(std::fread(magic, 1, 2, f), 2u);
  std::fclose(f);
  EXPECT_EQ(magic[0], 'P');
  EXPECT_EQ(magic[1], '6');
  std::remove(cfg.store_path.c_str());
}


class Convolution2DSweep : public ::testing::TestWithParam<int> {};

TEST_P(Convolution2DSweep, TileDecompositionMatchesSerialReference) {
  const int p = GetParam();
  const int steps = 5;
  World world(p, ideal_options());
  sections::SectionRuntime::install(world);
  ConvolutionConfig cfg = small_config(steps, /*full=*/true);
  cfg.decomp_dims = 2;
  ConvolutionApp app(cfg);
  world.run(std::ref(app));
  ASSERT_TRUE(app.has_result());
  const Image loaded =
      decode_ppm(encode_ppm(make_test_image(24, 18, app.config().image_seed)));
  const Image expected =
      convolve_reference(loaded, steps, Kernel3x3::mean_filter());
  EXPECT_LT(app.result().mean_abs_diff(expected), 1e-12)
      << "2D tile stencil diverged from the serial reference at p=" << p;
}

// 6 ranks -> 2x3 grid, 9 -> 3x3 (corners + all faces), 5 -> 1x5 degenerate.
INSTANTIATE_TEST_SUITE_P(Grids, Convolution2DSweep,
                         ::testing::Values(1, 2, 4, 6, 9, 12, 5));

TEST(Convolution2D, MatchesOneDimensionalResultExactly) {
  const int steps = 4;
  auto run_dims = [&](int dims) {
    World world(6, ideal_options());
    sections::SectionRuntime::install(world);
    ConvolutionConfig cfg = small_config(steps, /*full=*/true);
    cfg.decomp_dims = dims;
    ConvolutionApp app(cfg);
    world.run(std::ref(app));
    return app.result().checksum();
  };
  EXPECT_DOUBLE_EQ(run_dims(1), run_dims(2));
}

TEST(Convolution2D, HaloBytesSmallerThan1D) {
  // Sec. 3's point: at 16 ranks on a square-ish image, a tile's halo is a
  // perimeter, not two full rows.
  const GridDecomposition grid(1024, 1024, 16);  // 4x4 grid
  const RowDecomposition rows(1024, 16);
  const std::size_t pixel = kChannels * sizeof(double);
  // Interior tile: 4 faces of 256 px + 4 corners vs 2 rows of 1024 px.
  const std::size_t tile_bytes = grid.halo_bytes(5, pixel);
  const std::size_t row_bytes = 2u * 1024u * pixel;
  EXPECT_LT(tile_bytes, row_bytes);
  EXPECT_EQ(tile_bytes, (4u * 256u + 4u) * pixel);
  (void)rows;
}

TEST(Convolution2D, GridGeometry) {
  int px = 0;
  int py = 0;
  GridDecomposition::squarest_grid(12, px, py);
  EXPECT_EQ(px, 3);
  EXPECT_EQ(py, 4);
  GridDecomposition::squarest_grid(7, px, py);
  EXPECT_EQ(px, 1);
  EXPECT_EQ(py, 7);
  const GridDecomposition grid(100, 90, 6);  // 2x3
  EXPECT_EQ(grid.px(), 2);
  EXPECT_EQ(grid.py(), 3);
  // Tiles partition the image exactly.
  long area = 0;
  for (int r = 0; r < 6; ++r) {
    const auto t = grid.tile_of(r);
    area += static_cast<long>(t.width) * t.height;
    EXPECT_GT(t.width, 0);
    EXPECT_GT(t.height, 0);
  }
  EXPECT_EQ(area, 100L * 90L);
  EXPECT_EQ(grid.neighbor(0, -1, 0), -1);
  EXPECT_EQ(grid.neighbor(0, 1, 0), 1);
  EXPECT_EQ(grid.neighbor(0, 0, 1), 2);
  EXPECT_EQ(grid.neighbor(3, 1, 1), -1);  // (1,1)+(1,1) leaves the 2x3 grid
}

}  // namespace
