#include "deck.h"

#include <algorithm>
#include <array>

#include "apps/cp/cp.h"
#include "apps/lbm/lbm.h"
#include "apps/matmul/matmul.h"
#include "apps/mri/mri_q.h"
#include "apps/pns/pns.h"
#include "apps/rc5/rc5.h"
#include "apps/saxpy/saxpy.h"
#include "apps/tpacf/tpacf.h"
#include "bench_util.h"
#include "common/rng.h"
#include "common/stats.h"

namespace perfbench {

using namespace g80;
using namespace g80::apps;

namespace {

// Sizes: chosen so each entry's full launch costs about the same host time
// (one latency mode); see README.md.
constexpr int kMatmulN = 72, kMatmulTile = 8;
constexpr int kTpacfPoints = 128;
constexpr int kLbmNy = 8, kLbmNz = 8;
constexpr std::size_t kSaxpyN = 3u << 18;
constexpr int kCpGrid = 384, kCpAtoms = 24;
constexpr int kMriVoxels = 16384, kMriSamples = 40;
constexpr std::uint32_t kRc5Keys = 30720;
constexpr int kPnsSims = 8192, kPnsSteps = 4;

// Largest relative error between device output and CPU reference, with the
// apps' own tolerances; returns "" when within `tol`.
std::string compare(const char* what, const float* got,
                    const std::vector<float>& ref, double floor, double tol) {
  double err = 0;
  for (std::size_t i = 0; i < ref.size(); ++i)
    err = std::max(err, rel_err(got[i], ref[i], floor));
  if (err <= tol) return "";
  return std::string(what) + ": max rel err " + std::to_string(err);
}

template <class T>
std::uint64_t buf_digest(const DeviceBuffer<T>& b) {
  return digest_bytes(b.raw(), b.bytes());
}

template <class T>
void poison(DeviceBuffer<T>& b) {
  std::fill(b.raw(), b.raw() + b.size(), T(0x5a));
}

DeckEntry matmul_tiled(Device& dev, std::uint64_t seed) {
  struct S {
    MatmulWorkload w;
    DeviceBuffer<float> a, b, c;
    std::vector<float> ref;
  };
  auto w = MatmulWorkload::generate(kMatmulN, seed);
  auto s = std::make_shared<S>(S{w, dev.alloc<float>(w.a.size()),
                                 dev.alloc<float>(w.b.size()),
                                 dev.alloc<float>(w.a.size()), {}});
  s->a.copy_from_host(s->w.a);
  s->b.copy_from_host(s->w.b);
  matmul_cpu(kMatmulN, s->w.a, s->w.b, s->ref);
  const MatmulConfig cfg{MatmulVariant::kTiled, kMatmulTile};

  DeckEntry e;
  e.name = "matmul_tiled";
  e.kind = "barrier";
  e.opt.regs_per_thread = cfg.regs_per_thread();
  e.threads = static_cast<std::uint64_t>(kMatmulN) * kMatmulN;
  const Dim3 grid(kMatmulN / kMatmulTile, kMatmulN / kMatmulTile),
      block(kMatmulTile, kMatmulTile);
  const MatmulTiledKernel k{kMatmulN, kMatmulTile, false, false};
  e.run = [&dev, s, grid, block, k](const LaunchOptions& o) {
    return launch(dev, grid, block, o, k, s->a, s->b, s->c);
  };
  e.reset_outputs = [s] { poison(s->c); };
  e.digest = [s] { return buf_digest(s->c); };
  e.check_reference = [s] {
    return compare("matmul_tiled", s->c.raw(), s->ref, 1e-3, 2e-4);
  };
  return e;
}

DeckEntry tpacf(Device& dev, std::uint64_t seed) {
  struct S {
    TpacfWorkload w;
    DeviceBuffer<float> x, y, z;
    ConstantBuffer<float> edges;
    DeviceBuffer<unsigned> hist;
    std::array<std::uint64_t, kTpacfBins> ref{};
  };
  auto w = TpacfWorkload::generate(kTpacfPoints, seed);
  const unsigned blocks =
      (kTpacfPoints + kTpacfBlockThreads - 1) / kTpacfBlockThreads;
  auto s = std::make_shared<S>(
      S{w, dev.alloc<float>(kTpacfPoints), dev.alloc<float>(kTpacfPoints),
        dev.alloc<float>(kTpacfPoints),
        dev.alloc_constant<float>(w.bin_edges.size()),
        dev.alloc<unsigned>(static_cast<std::size_t>(blocks) * kTpacfBins),
        {}});
  s->x.copy_from_host(s->w.x);
  s->y.copy_from_host(s->w.y);
  s->z.copy_from_host(s->w.z);
  s->edges.copy_from_host(s->w.bin_edges);
  tpacf_cpu(s->w, s->ref);

  DeckEntry e;
  e.name = "tpacf";
  e.kind = "barrier";
  e.opt.regs_per_thread = 14;
  e.threads = static_cast<std::uint64_t>(blocks) * kTpacfBlockThreads;
  e.run = [&dev, s, blocks](const LaunchOptions& o) {
    return launch(dev, Dim3(blocks), Dim3(kTpacfBlockThreads), o,
                  TpacfKernel{kTpacfPoints}, s->x, s->y, s->z, s->edges,
                  s->hist);
  };
  e.reset_outputs = [s] { poison(s->hist); };
  e.digest = [s] { return buf_digest(s->hist); };
  e.check_reference = [s, blocks]() -> std::string {
    std::array<std::uint64_t, kTpacfBins> got{};
    for (unsigned b = 0; b < blocks; ++b)
      for (int k = 0; k < kTpacfBins; ++k)
        got[static_cast<std::size_t>(k)] +=
            s->hist.raw()[static_cast<std::size_t>(b) * kTpacfBins + k];
    return got == s->ref ? "" : "tpacf: histogram differs from reference";
  };
  return e;
}

DeckEntry lbm_staged(Device& dev, std::uint64_t seed) {
  LbmParams p;
  p.nx = 128;
  p.ny = kLbmNy;
  p.nz = kLbmNz;
  p.steps = 1;
  struct S {
    LbmParams p;
    DeviceBuffer<float> src, dst;
    std::vector<float> ref;
  };
  // The generator's shear wave is seed-free; the seed perturbs it slightly.
  auto f0 = LbmWorkload::generate(p).f0;
  SplitMix64 rng(seed);
  for (auto& v : f0) v *= 1.0f + rng.uniform_f(-1e-3f, 1e-3f);
  auto s = std::make_shared<S>(
      S{p, dev.alloc<float>(f0.size()), dev.alloc<float>(f0.size()), f0});
  s->src.copy_from_host(f0);
  std::vector<float> tmp;
  lbm_cpu(p, s->ref, tmp);

  DeckEntry e;
  e.name = "lbm_staged";
  e.kind = "barrier";
  e.opt.regs_per_thread = 32;
  e.threads = p.cells();
  const Dim3 grid(static_cast<unsigned>(p.nx / 128),
                  static_cast<unsigned>(p.ny * p.nz)),
      block(128);
  e.run = [&dev, s, grid, block](const LaunchOptions& o) {
    return launch(dev, grid, block, o, LbmKernel{s->p, LbmLayout::kSoAStaged},
                  s->src, s->dst);
  };
  e.reset_outputs = [s] { poison(s->dst); };
  e.digest = [s] { return buf_digest(s->dst); };
  e.check_reference = [s] {
    return compare("lbm_staged", s->dst.raw(), s->ref, 1e-3, 1e-4);
  };
  return e;
}

DeckEntry saxpy(Device& dev, std::uint64_t seed) {
  struct S {
    SaxpyWorkload w;
    DeviceBuffer<float> x, y, out;
    std::vector<float> ref;
  };
  auto w = SaxpyWorkload::generate(kSaxpyN, seed);
  auto s = std::make_shared<S>(S{w, dev.alloc<float>(kSaxpyN),
                                 dev.alloc<float>(kSaxpyN),
                                 dev.alloc<float>(kSaxpyN), {}});
  s->x.copy_from_host(s->w.x);
  s->y.copy_from_host(s->w.y);
  saxpy_cpu(s->w.a, s->w.x, s->w.y, s->ref);

  DeckEntry e;
  e.name = "saxpy";
  e.kind = "fiberless";
  e.opt.regs_per_thread = 5;
  e.opt.uses_sync = false;
  e.threads = kSaxpyN;
  const Dim3 block(256), grid(static_cast<unsigned>(kSaxpyN / 256));
  e.run = [&dev, s, grid, block](const LaunchOptions& o) {
    return launch(dev, grid, block, o,
                  SaxpyKernel{s->w.a, static_cast<int>(kSaxpyN)}, s->x, s->y,
                  s->out);
  };
  e.reset_outputs = [s] { poison(s->out); };
  e.digest = [s] { return buf_digest(s->out); };
  e.check_reference = [s] {
    return compare("saxpy", s->out.raw(), s->ref, 1e-30, 1e-6);
  };
  return e;
}

DeckEntry cp(Device& dev, std::uint64_t seed) {
  struct S {
    CpWorkload w;
    ConstantBuffer<Float4> atoms;
    DeviceBuffer<float> out;
    std::vector<float> ref;
  };
  auto w = CpWorkload::generate(kCpGrid, kCpAtoms, seed);
  auto s = std::make_shared<S>(
      S{w, dev.alloc_constant<Float4>(w.atoms.size()),
        dev.alloc<float>(static_cast<std::size_t>(kCpGrid) * kCpGrid), {}});
  s->atoms.copy_from_host(s->w.atoms);
  cp_cpu(s->w, s->ref);

  DeckEntry e;
  e.name = "cp";
  e.kind = "fiberless";
  e.opt.regs_per_thread = 10;
  e.opt.uses_sync = false;
  e.threads = static_cast<std::uint64_t>(kCpGrid) * kCpGrid;
  const Dim3 block(16, 16), grid(kCpGrid / 16, kCpGrid / 16);
  e.run = [&dev, s, grid, block](const LaunchOptions& o) {
    return launch(dev, grid, block, o,
                  CpKernel{kCpGrid, s->w.spacing, s->w.slice_z}, s->atoms,
                  s->out);
  };
  e.reset_outputs = [s] { poison(s->out); };
  e.digest = [s] { return buf_digest(s->out); };
  e.check_reference = [s] {
    return compare("cp", s->out.raw(), s->ref, 1e-3, 1e-4);
  };
  return e;
}

DeckEntry mri_q(Device& dev, std::uint64_t seed) {
  struct S {
    MriWorkload w;
    DeviceBuffer<float> x, y, z;
    ConstantBuffer<Float4> k;
    DeviceBuffer<float> qr, qi;
    std::vector<float> ref_r, ref_i;
  };
  auto w = MriWorkload::generate(kMriVoxels, kMriSamples, seed);
  auto s = std::make_shared<S>(
      S{w, dev.alloc<float>(kMriVoxels), dev.alloc<float>(kMriVoxels),
        dev.alloc<float>(kMriVoxels),
        dev.alloc_constant<Float4>(w.samples.size()),
        dev.alloc<float>(kMriVoxels), dev.alloc<float>(kMriVoxels), {}, {}});
  s->x.copy_from_host(s->w.x);
  s->y.copy_from_host(s->w.y);
  s->z.copy_from_host(s->w.z);
  s->k.copy_from_host(s->w.samples);
  mri_q_cpu(s->w, s->ref_r, s->ref_i);

  DeckEntry e;
  e.name = "mri_q";
  e.kind = "fiberless";
  e.opt.regs_per_thread = 11;
  e.opt.uses_sync = false;
  e.threads = kMriVoxels;
  const Dim3 block(256), grid((kMriVoxels + 255) / 256);
  e.run = [&dev, s, grid, block](const LaunchOptions& o) {
    return launch(dev, grid, block, o, MriQKernel{kMriVoxels, true}, s->x,
                  s->y, s->z, s->k, s->qr, s->qi);
  };
  e.reset_outputs = [s] {
    poison(s->qr);
    poison(s->qi);
  };
  e.digest = [s] {
    return digest_bytes(s->qi.raw(), s->qi.bytes(), buf_digest(s->qr));
  };
  e.check_reference = [s] {
    const std::string re =
        compare("mri_q re", s->qr.raw(), s->ref_r, 1e-2, 1e-4);
    return re.empty() ? compare("mri_q im", s->qi.raw(), s->ref_i, 1e-2, 1e-4)
                      : re;
  };
  return e;
}

DeckEntry rc5(Device& dev, std::uint64_t seed) {
  struct S {
    Rc5Workload w;
    DeviceBuffer<std::uint32_t> found;
    DeviceBuffer<std::uint8_t> partial;
    std::vector<std::uint8_t> ref_partial;
    std::uint32_t ref_found = 0;
  };
  auto w = Rc5Workload::generate(kRc5Keys, seed);
  auto s = std::make_shared<S>(S{w, dev.alloc<std::uint32_t>(1),
                                 dev.alloc<std::uint8_t>(kRc5Keys), {}, 0});
  s->ref_found = rc5_cpu(s->w, s->ref_partial);

  Rc5Kernel kernel;
  kernel.w = s->w;
  kernel.keys_per_thread = 4;
  DeckEntry e;
  e.name = "rc5_72";
  e.kind = "divergent";
  e.opt.regs_per_thread = 42;
  e.opt.uses_sync = false;
  const std::uint32_t threads = kRc5Keys / kernel.keys_per_thread;
  const Dim3 block(192), grid((threads + 191) / 192);
  e.threads = static_cast<std::uint64_t>(grid.x) * 192;
  e.run = [&dev, s, grid, block, kernel](const LaunchOptions& o) {
    return launch(dev, grid, block, o, kernel, s->found, s->partial);
  };
  // `found` starts at num_keys ("no match"): the kernel only writes a hit.
  e.reset_outputs = [s] {
    s->found.fill(s->w.num_keys);
    poison(s->partial);
  };
  e.digest = [s] {
    return digest_bytes(s->partial.raw(), s->partial.bytes(),
                        buf_digest(s->found));
  };
  e.check_reference = [s]() -> std::string {
    if (s->found.raw()[0] != s->ref_found || s->ref_found != s->w.planted)
      return "rc5_72: planted key not found";
    if (!std::equal(s->ref_partial.begin(), s->ref_partial.end(),
                    s->partial.raw()))
      return "rc5_72: partial-match flags differ from reference";
    return "";
  };
  return e;
}

DeckEntry pns(Device& dev, std::uint64_t seed) {
  struct S {
    PnsNet net;
    DeviceBuffer<std::int32_t> init, in_g, out_g;
    Texture1D<std::int32_t> in_t, out_t;
    DeviceBuffer<std::int32_t> marking, fired;
    std::vector<std::int32_t> ref_marking, ref_fired;
  };
  auto net = PnsNet::generate(seed);
  const auto places = static_cast<std::size_t>(kPnsPlaces) * kPnsSims;
  auto s = std::make_shared<S>(S{
      net, dev.alloc<std::int32_t>(net.initial_marking.size()),
      dev.alloc<std::int32_t>(net.in.size()),
      dev.alloc<std::int32_t>(net.out.size()),
      dev.alloc_texture<std::int32_t>(net.in.size()),
      dev.alloc_texture<std::int32_t>(net.out.size()),
      dev.alloc<std::int32_t>(places), dev.alloc<std::int32_t>(kPnsSims),
      std::vector<std::int32_t>(places), std::vector<std::int32_t>(kPnsSims)});
  s->init.copy_from_host(net.initial_marking);
  s->in_g.copy_from_host(net.in);
  s->out_g.copy_from_host(net.out);
  s->in_t.copy_from_host(net.in);
  s->out_t.copy_from_host(net.out);
  std::vector<std::int32_t> tmp(kPnsPlaces);
  for (int sim = 0; sim < kPnsSims; ++sim) {
    s->ref_fired[static_cast<std::size_t>(sim)] =
        pns_simulate_cpu(s->net, sim, kPnsSteps, tmp.data());
    for (int p = 0; p < kPnsPlaces; ++p)
      s->ref_marking[static_cast<std::size_t>(p) * kPnsSims + sim] = tmp[p];
  }

  PnsKernel kernel;
  kernel.num_sims = kPnsSims;
  kernel.steps = kPnsSteps;
  kernel.rng_seed = net.rng_seed;
  kernel.table_space = PnsTableSpace::kTexture;
  DeckEntry e;
  e.name = "pns";
  e.kind = "divergent";
  e.opt.regs_per_thread = 24;
  e.opt.uses_sync = false;
  e.threads = kPnsSims;
  const Dim3 block(128), grid((kPnsSims + 127) / 128);
  e.run = [&dev, s, grid, block, kernel](const LaunchOptions& o) {
    return launch(dev, grid, block, o, kernel, s->init, s->in_g, s->out_g,
                  s->in_t, s->out_t, s->marking, s->fired);
  };
  e.reset_outputs = [s] {
    poison(s->marking);
    poison(s->fired);
  };
  e.digest = [s] {
    return digest_bytes(s->fired.raw(), s->fired.bytes(),
                        buf_digest(s->marking));
  };
  e.check_reference = [s]() -> std::string {
    if (!std::equal(s->ref_fired.begin(), s->ref_fired.end(), s->fired.raw()))
      return "pns: fired counts differ from reference";
    if (!std::equal(s->ref_marking.begin(), s->ref_marking.end(),
                    s->marking.raw()))
      return "pns: final markings differ from reference";
    return "";
  };
  return e;
}

}  // namespace

Deck make_deck(std::uint64_t seed) {
  Deck d;
  d.dev = std::make_unique<Device>(DeviceSpec::geforce_8800_gtx());
  Device& dev = *d.dev;
  // Distinct generator streams per entry, all derived from the run seed.
  SplitMix64 rng(seed);
  d.entries.push_back(matmul_tiled(dev, rng.next_u64()));
  d.entries.push_back(tpacf(dev, rng.next_u64()));
  d.entries.push_back(lbm_staged(dev, rng.next_u64()));
  d.entries.push_back(saxpy(dev, rng.next_u64()));
  d.entries.push_back(cp(dev, rng.next_u64()));
  d.entries.push_back(mri_q(dev, rng.next_u64()));
  d.entries.push_back(rc5(dev, rng.next_u64()));
  d.entries.push_back(pns(dev, rng.next_u64()));
  return d;
}

}  // namespace perfbench
