// Seeded input generator for the outside-in benchmark.
//
// Everything the program under test receives is SPICE text made here; the
// ground truth that scores its output comes from the generator (the
// circuits part builders' TruthComposer plus the mirror labels recorded
// below), never from the extractor. The same seed always yields the same
// text and truth.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "eval/ground_truth.h"
#include "netlist/netlist.h"

namespace e2e {

/// SplitMix64: tiny, and bit-identical on every platform and toolchain.
class SeededRng {
 public:
  explicit SeededRng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next();
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [lo, hi].
  int between(int lo, int hi);

 private:
  std::uint64_t state_;
};

/// Mixes a run seed with a stream position into an independent seed.
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t index);

/// Input scale: `full` for measured runs, `tiny` for the self-test.
enum class Size { kFull, kTiny };

/// One design as the program sees it, plus the generator's answer key.
struct GeneratedDesign {
  std::string name;
  std::string spice;
  ancstr::GroundTruth truth;
  std::size_t devices = 0;  ///< flat device count
};

/// cold_mix design `index` of the stream for `seed`. The structure follows
/// a fixed schedule (classes rotate with the index: CT delta-sigma, SAR,
/// hybrid, multi-channel top), so every run serves the same size mix; the
/// seed sets a per-design sizing scale, so no two designs of one run, nor
/// of runs with different seeds, share a design or block structural hash.
GeneratedDesign coldMixDesign(std::uint64_t seed, std::size_t index,
                              Size size);

/// The serve_mix pool, in popularity order (smallest design first): the
/// 20 paper circuits plus 2- and 4-channel variants that instantiate a
/// paper ADC's top cell, so they reuse its block masters. The pool is
/// fixed; the seed only drives the request stream.
std::vector<GeneratedDesign> servePool(Size size);

/// Zipf(s = 1) popularity over pool indices (index 0 most popular).
/// draw(i) is a pure function of (seed, i), so the stream is the same
/// however client threads interleave.
class ZipfStream {
 public:
  ZipfStream(std::uint64_t seed, std::size_t poolSize);
  std::size_t draw(std::size_t requestIndex) const;

 private:
  std::uint64_t seed_;
  std::vector<double> cdf_;
};

/// eco_chain input: one large, deep design whose channels each carry their
/// own copy of the masters, and a seeded chain of edits. An edit touches
/// only a master instantiated once, so it dirties one leaf-to-root path.
class EcoChain {
 public:
  EcoChain(std::uint64_t seed, Size size);

  const GeneratedDesign& base() const { return base_; }
  /// Applies the next edit (one device's width or value rescaled) and
  /// returns the new version's SPICE text.
  std::string next();

 private:
  struct Editable {
    ancstr::SubcktId subckt;
    ancstr::DeviceId device;
    ancstr::DeviceParams original;
  };

  ancstr::Library lib_;
  GeneratedDesign base_;
  std::vector<Editable> editable_;
  SeededRng rng_;
};

/// The fixed accuracy set: the 20 paper circuits plus 20 cold_mix-style
/// designs from a fixed seed. Accuracy is a property of the program, so
/// every run scores the same designs.
std::vector<GeneratedDesign> evaluationSet(Size size);

/// The training corpus: the 20 paper circuits plus a sized variant of each
/// paper ADC (every MOS width rescaled by a seeded factor).
std::vector<GeneratedDesign> trainCorpus(std::uint64_t seed, Size size);

}  // namespace e2e
