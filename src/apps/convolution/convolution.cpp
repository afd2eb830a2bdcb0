#include "apps/convolution/convolution.hpp"

#include <cstring>
#include <fstream>
#include <utility>
#include <vector>

#include "core/sections/api.hpp"
#include "mpisim/comm.hpp"
#include "mpisim/error.hpp"

namespace mpisect::apps::conv {
namespace {

using mpisim::Comm;
using mpisim::Ctx;
using sections::MPIX_Section_enter;
using sections::MPIX_Section_exit;

constexpr int kTagUp = 11;    ///< messages travelling towards rank-1
constexpr int kTagDown = 12;  ///< messages travelling towards rank+1

/// Section + optional Pcontrol bracket, so the same run can feed both the
/// section profiler and the IPM-style baseline.
class Phase {
 public:
  Phase(Comm& comm, const char* label, bool pcontrol)
      : comm_(comm), label_(label), pcontrol_(pcontrol) {
    MPIX_Section_enter(comm_, label_);
    if (pcontrol_) comm_.ctx().pcontrol(1, label_);
  }
  ~Phase() {
    if (pcontrol_) comm_.ctx().pcontrol(-1, label_);
    MPIX_Section_exit(comm_, label_);
  }
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

 private:
  Comm& comm_;
  const char* label_;
  bool pcontrol_;
};

}  // namespace

ConvolutionApp::ConvolutionApp(ConvolutionConfig config)
    : config_(std::move(config)) {}

void ConvolutionApp::run_rank0_io(mpisim::Ctx& ctx, bool load,
                                  Image* io_image) {
  const auto pixels = static_cast<double>(config_.width) *
                      static_cast<double>(config_.height);
  const double ppm_bytes = pixels * kChannels + 32.0;
  ctx.compute(ppm_bytes / config_.io_bandwidth);
  ctx.compute_flops(pixels * (load ? config_.decode_flops_per_pixel
                                   : config_.encode_flops_per_pixel));
  if (!config_.full_fidelity || io_image == nullptr) return;
  if (load) {
    // "Load" the photograph: generate it procedurally, then round-trip the
    // PPM codec so the decode path is genuinely exercised.
    const Image original =
        make_test_image(config_.width, config_.height, config_.image_seed);
    *io_image = decode_ppm(encode_ppm(original));
  } else if (!config_.store_path.empty()) {
    const auto bytes = encode_ppm(*io_image);
    std::ofstream out(config_.store_path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
}

void ConvolutionApp::operator()(mpisim::Ctx& ctx) {
  if (config_.decomp_dims == 2) {
    run_2d(ctx);
  } else {
    run_1d(ctx);
  }
}

void ConvolutionApp::run_1d(mpisim::Ctx& ctx) {
  Comm comm = ctx.world_comm();
  const int rank = comm.rank();
  const int p = comm.size();
  const bool full = config_.full_fidelity;
  const bool pc = config_.emit_pcontrol;

  const RowDecomposition decomp(config_.height, p);
  const int my_rows = decomp.rows_of(rank);
  const std::size_t row_bytes = static_cast<std::size_t>(config_.width) *
                                kChannels * sizeof(double);
  const int up = decomp.up_neighbor(rank);
  const int down = decomp.down_neighbor(rank);

  // Local band with one halo row above (local row 0) and below (my_rows+1).
  Image local;
  Image back;
  if (full) {
    local = Image(config_.width, my_rows + 2);
    back = Image(config_.width, my_rows + 2);
  }

  // --- LOAD: sequential on rank 0, others pass through (their imbalance is
  // exactly what Fig. 3's entry metrics expose).
  Image global;
  {
    const Phase phase(comm, labels::kLoad, pc);
    if (rank == 0) run_rank0_io(ctx, /*load=*/true, &global);
  }

  // scatterv/gatherv read counts and displacements only at the root, so the
  // other ranks pass empty spans instead of building two p-length vectors
  // each (O(p^2) work over the whole world).
  std::vector<std::size_t> counts;
  std::vector<std::size_t> displs;
  if (rank == 0) {
    counts = decomp.byte_counts(row_bytes);
    displs = decomp.byte_displs(row_bytes);
  }

  // --- SCATTER: 1D row split.
  {
    const Phase phase(comm, labels::kScatter, pc);
    comm.scatterv(full && rank == 0 ? global.data() : nullptr, counts, displs,
                  full ? local.row(1) : nullptr,
                  static_cast<std::size_t>(my_rows) * row_bytes, 0);
    if (rank == 0) global = Image();  // root's copy no longer needed
  }

  // --- Time-step loop: HALO then CONVOLVE, config_.steps times.
  for (int step = 0; step < config_.steps; ++step) {
    {
      const Phase phase(comm, labels::kHalo, pc);
      std::vector<Comm::Request> sends;
      if (up >= 0) {
        sends.push_back(comm.isend(full ? local.row(1) : nullptr, row_bytes,
                                   up, kTagUp));
      }
      if (down >= 0) {
        sends.push_back(comm.isend(full ? local.row(my_rows) : nullptr,
                                   row_bytes, down, kTagDown));
      }
      if (down >= 0) {
        comm.recv(full ? local.row(my_rows + 1) : nullptr, row_bytes, down,
                  kTagUp);
      }
      if (up >= 0) {
        comm.recv(full ? local.row(0) : nullptr, row_bytes, up, kTagDown);
      }
      mpisim::waitall(sends);
      if (full) {
        // Domain boundaries: clamp semantics — replicate the edge row into
        // the missing halo so the stencil code is uniform.
        if (up < 0) {
          std::memcpy(local.row(0), local.row(1), row_bytes);
        }
        if (down < 0) {
          std::memcpy(local.row(my_rows + 1), local.row(my_rows), row_bytes);
        }
      }
    }
    {
      const Phase phase(comm, labels::kConvolve, pc);
      ctx.compute_flops(static_cast<double>(my_rows) *
                        static_cast<double>(config_.width) *
                        config_.flops_per_pixel);
      if (full) {
        apply_stencil_rows(local, back, 1, my_rows + 1, config_.kernel);
        // Refresh halo rows in the back buffer so the swap keeps them
        // consistent for the next exchange.
        std::memcpy(back.row(0), local.row(0), row_bytes);
        std::memcpy(back.row(my_rows + 1), local.row(my_rows + 1), row_bytes);
        std::swap(local, back);
      }
    }
  }

  // --- GATHER back to rank 0.
  {
    const Phase phase(comm, labels::kGather, pc);
    Image gathered;
    if (full && rank == 0) gathered = Image(config_.width, config_.height);
    comm.gatherv(full ? local.row(1) : nullptr,
                 static_cast<std::size_t>(my_rows) * row_bytes,
                 full && rank == 0 ? gathered.data() : nullptr, counts,
                 displs, 0);
    if (rank == 0 && full) *result_ = std::move(gathered);
  }

  // --- STORE: sequential on rank 0.
  {
    const Phase phase(comm, labels::kStore, pc);
    if (rank == 0) run_rank0_io(ctx, /*load=*/false, result_.get());
  }
}


// ---------------------------------------------------------------------------
// 2D (tile) decomposition — the Sec. 3 alternative: perimeter halos
// instead of full rows, exchanged with up to 8 neighbours.
// ---------------------------------------------------------------------------

namespace {

/// Tags for the eight exchange directions, indexed (dx+1) + 3*(dy+1).
constexpr int kTagGrid = 20;

/// Pack a rectangle of `img` into a contiguous buffer.
void pack_rect(const Image& img, int x0, int y0, int w, int h,
               std::vector<double>& out) {
  out.resize(static_cast<std::size_t>(w) * h * kChannels);
  std::size_t cursor = 0;
  for (int y = 0; y < h; ++y) {
    const double* row = img.row(y0 + y) + static_cast<std::size_t>(x0) * kChannels;
    std::memcpy(out.data() + cursor, row,
                static_cast<std::size_t>(w) * kChannels * sizeof(double));
    cursor += static_cast<std::size_t>(w) * kChannels;
  }
}

/// Unpack a contiguous buffer into a rectangle of `img`.
void unpack_rect(Image& img, int x0, int y0, int w, int h,
                 const std::vector<double>& in) {
  std::size_t cursor = 0;
  for (int y = 0; y < h; ++y) {
    double* row = img.row(y0 + y) + static_cast<std::size_t>(x0) * kChannels;
    std::memcpy(row, in.data() + cursor,
                static_cast<std::size_t>(w) * kChannels * sizeof(double));
    cursor += static_cast<std::size_t>(w) * kChannels;
  }
}

}  // namespace

void ConvolutionApp::run_2d(mpisim::Ctx& ctx) {
  Comm comm = ctx.world_comm();
  const int rank = comm.rank();
  const int p = comm.size();
  const bool full = config_.full_fidelity;
  const bool pc = config_.emit_pcontrol;

  const GridDecomposition grid(config_.width, config_.height, p);
  const GridDecomposition::Tile tile = grid.tile_of(rank);
  const int tw = tile.width;
  const int th = tile.height;
  const std::size_t pixel_bytes = kChannels * sizeof(double);

  // Local tile with a 1-pixel halo ring: (tw+2) x (th+2).
  Image local;
  Image back;
  if (full) {
    local = Image(tw + 2, th + 2);
    back = Image(tw + 2, th + 2);
  }

  // --- LOAD (identical to the 1D pipeline).
  Image global;
  {
    const Phase phase(comm, labels::kLoad, pc);
    if (rank == 0) run_rank0_io(ctx, /*load=*/true, &global);
  }

  // --- SCATTER: rank 0 packs and ships every tile (2D blocks are not
  // contiguous, so this is explicit distribution, as real tile codes do).
  {
    const Phase phase(comm, labels::kScatter, pc);
    if (rank == 0) {
      std::vector<Comm::Request> sends;
      std::vector<std::vector<double>> bufs(static_cast<std::size_t>(p));
      for (int r = p - 1; r >= 0; --r) {
        const auto rt = grid.tile_of(r);
        const std::size_t bytes =
            static_cast<std::size_t>(rt.width) * rt.height * pixel_bytes;
        if (r == 0) {
          if (full) {
            pack_rect(global, rt.x0, rt.y0, rt.width, rt.height,
                      bufs[0]);
            unpack_rect(local, 1, 1, tw, th, bufs[0]);
          }
          continue;
        }
        if (full) {
          pack_rect(global, rt.x0, rt.y0, rt.width, rt.height,
                    bufs[static_cast<std::size_t>(r)]);
        }
        sends.push_back(comm.isend(
            full ? bufs[static_cast<std::size_t>(r)].data() : nullptr, bytes,
            r, kTagGrid + 9));
      }
      mpisim::waitall(sends);
      global = Image();
    } else {
      const std::size_t bytes =
          static_cast<std::size_t>(tw) * th * pixel_bytes;
      std::vector<double> buf;
      if (full) buf.resize(static_cast<std::size_t>(tw) * th * kChannels);
      comm.recv(full ? buf.data() : nullptr, bytes, 0, kTagGrid + 9);
      if (full) unpack_rect(local, 1, 1, tw, th, buf);
    }
  }

  // Neighbour table and exchange buffers.
  struct Edge {
    int dx, dy;
    int peer;
    int x0, y0, w, h;      ///< interior rectangle to send
    int hx0, hy0;          ///< halo position to receive into
    std::vector<double> send_buf, recv_buf;
  };
  std::vector<Edge> edges;
  for (int dy = -1; dy <= 1; ++dy) {
    for (int dx = -1; dx <= 1; ++dx) {
      if (dx == 0 && dy == 0) continue;
      const int peer = grid.neighbor(rank, dx, dy);
      if (peer < 0) continue;
      Edge e;
      e.dx = dx;
      e.dy = dy;
      e.peer = peer;
      e.w = dx == 0 ? tw : 1;
      e.h = dy == 0 ? th : 1;
      e.x0 = dx < 0 ? 1 : (dx > 0 ? tw : 1);
      e.y0 = dy < 0 ? 1 : (dy > 0 ? th : 1);
      e.hx0 = dx < 0 ? 0 : (dx > 0 ? tw + 1 : 1);
      e.hy0 = dy < 0 ? 0 : (dy > 0 ? th + 1 : 1);
      edges.push_back(std::move(e));
    }
  }
  const bool has_left = grid.neighbor(rank, -1, 0) >= 0;
  const bool has_right = grid.neighbor(rank, 1, 0) >= 0;
  const bool has_up = grid.neighbor(rank, 0, -1) >= 0;
  const bool has_down = grid.neighbor(rank, 0, 1) >= 0;

  // --- time-step loop: HALO (8-neighbour ring) then CONVOLVE.
  for (int step = 0; step < config_.steps; ++step) {
    {
      const Phase phase(comm, labels::kHalo, pc);
      std::vector<Comm::Request> sends;
      for (auto& e : edges) {
        const std::size_t bytes =
            static_cast<std::size_t>(e.w) * e.h * pixel_bytes;
        if (full) pack_rect(local, e.x0, e.y0, e.w, e.h, e.send_buf);
        sends.push_back(comm.isend(full ? e.send_buf.data() : nullptr, bytes,
                                   e.peer,
                                   kTagGrid + (e.dx + 1) + 3 * (e.dy + 1)));
      }
      for (auto& e : edges) {
        const std::size_t bytes =
            static_cast<std::size_t>(e.w) * e.h * pixel_bytes;
        if (full) {
          e.recv_buf.resize(static_cast<std::size_t>(e.w) * e.h * kChannels);
        }
        // The peer sent with ITS direction towards us: (-dx, -dy).
        comm.recv(full ? e.recv_buf.data() : nullptr, bytes, e.peer,
                  kTagGrid + (-e.dx + 1) + 3 * (-e.dy + 1));
        if (full) unpack_rect(local, e.hx0, e.hy0, e.w, e.h, e.recv_buf);
      }
      mpisim::waitall(sends);

      if (full) {
        // Clamp-fill halo sides with no neighbour (global image border).
        if (!has_up) {
          std::memcpy(local.row(0) + kChannels, local.row(1) + kChannels,
                      static_cast<std::size_t>(tw) * pixel_bytes);
        }
        if (!has_down) {
          std::memcpy(local.row(th + 1) + kChannels,
                      local.row(th) + kChannels,
                      static_cast<std::size_t>(tw) * pixel_bytes);
        }
        if (!has_left) {
          for (int y = 1; y <= th; ++y) {
            for (int c = 0; c < kChannels; ++c) {
              local.at(0, y, c) = local.at(1, y, c);
            }
          }
        }
        if (!has_right) {
          for (int y = 1; y <= th; ++y) {
            for (int c = 0; c < kChannels; ++c) {
              local.at(tw + 1, y, c) = local.at(tw, y, c);
            }
          }
        }
        // Corners without a diagonal neighbour: clamp per the global-border
        // semantics (prefer the face halo that does exist).
        struct CornerFix {
          int cx, cy;        ///< corner halo cell
          bool face_x;       ///< the horizontal-adjacent face exists
          bool face_y;       ///< the vertical-adjacent face exists
          int fx, fy;        ///< from face-y (top/bottom halo row)
          int gx, gy;        ///< from face-x (left/right halo col)
          int ix, iy;        ///< interior fallback
          bool have;         ///< diagonal neighbour handled it already
        };
        const CornerFix corners[4] = {
            {0, 0, has_left, has_up, 1, 0, 0, 1, 1, 1,
             grid.neighbor(rank, -1, -1) >= 0},
            {tw + 1, 0, has_right, has_up, tw, 0, tw + 1, 1, tw, 1,
             grid.neighbor(rank, 1, -1) >= 0},
            {0, th + 1, has_left, has_down, 1, th + 1, 0, th, 1, th,
             grid.neighbor(rank, -1, 1) >= 0},
            {tw + 1, th + 1, has_right, has_down, tw, th + 1, tw + 1, th, tw,
             th, grid.neighbor(rank, 1, 1) >= 0},
        };
        for (const auto& cf : corners) {
          if (cf.have) continue;
          int sx = cf.ix;
          int sy = cf.iy;
          if (cf.face_y) {  // use the received top/bottom halo row
            sx = cf.fx;
            sy = cf.fy;
          } else if (cf.face_x) {  // use the received left/right halo col
            sx = cf.gx;
            sy = cf.gy;
          }
          for (int c = 0; c < kChannels; ++c) {
            local.at(cf.cx, cf.cy, c) = local.at(sx, sy, c);
          }
        }
      }
    }
    {
      const Phase phase(comm, labels::kConvolve, pc);
      ctx.compute_flops(static_cast<double>(tw) * th *
                        config_.flops_per_pixel);
      if (full) {
        apply_stencil_region(local, back, 1, tw + 1, 1, th + 1,
                             config_.kernel);
        std::swap(local, back);
      }
    }
  }

  // --- GATHER: tiles return to rank 0.
  {
    const Phase phase(comm, labels::kGather, pc);
    Image gathered;
    if (full && rank == 0) gathered = Image(config_.width, config_.height);
    if (rank == 0) {
      std::vector<double> buf;
      if (full) {
        pack_rect(local, 1, 1, tw, th, buf);
        unpack_rect(gathered, tile.x0, tile.y0, tw, th, buf);
      }
      for (int r = 1; r < p; ++r) {
        const auto rt = grid.tile_of(r);
        const std::size_t bytes =
            static_cast<std::size_t>(rt.width) * rt.height * pixel_bytes;
        if (full) {
          buf.resize(static_cast<std::size_t>(rt.width) * rt.height *
                     kChannels);
        }
        comm.recv(full ? buf.data() : nullptr, bytes, r, kTagGrid + 10);
        if (full) {
          unpack_rect(gathered, rt.x0, rt.y0, rt.width, rt.height, buf);
        }
      }
      if (full) *result_ = std::move(gathered);
    } else {
      std::vector<double> buf;
      const std::size_t bytes =
          static_cast<std::size_t>(tw) * th * pixel_bytes;
      if (full) pack_rect(local, 1, 1, tw, th, buf);
      comm.send(full ? buf.data() : nullptr, bytes, 0, kTagGrid + 10);
    }
  }

  // --- STORE.
  {
    const Phase phase(comm, labels::kStore, pc);
    if (rank == 0) run_rank0_io(ctx, /*load=*/false, result_.get());
  }
}

}  // namespace mpisect::apps::conv
