#include "generator.h"

#include <algorithm>
#include <map>
#include <utility>

#include "circuits/adc_parts.h"
#include "circuits/benchmark.h"
#include "circuits/truth_composer.h"
#include "netlist/builder.h"
#include "netlist/device_types.h"
#include "netlist/spice_writer.h"
#include "util/string_utils.h"

namespace e2e {

using namespace ancstr;
using circuits::PartsContext;
using circuits::TruthComposer;

std::uint64_t SeededRng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double SeededRng::uniform(double lo, double hi) {
  return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1.0p-53;
}

int SeededRng::between(int lo, int hi) {
  return lo + static_cast<int>(next() % static_cast<std::uint64_t>(hi - lo + 1));
}

std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t index) {
  SeededRng rng(seed ^ (index * 0xd1b54a32d192ed03ull));
  rng.next();
  return rng.next();
}

namespace {

std::string num(const std::string& stem, int i) {
  return stem + std::to_string(i);
}

/// Current-mirror answer key per master: (diode-connected reference,
/// mirror branch) local device names. TruthComposer records symmetry
/// only, so the generator keeps the mirror labels itself.
using MirrorKey =
    std::map<std::string, std::vector<std::pair<std::string, std::string>>>;

/// buildOtaFd's bias pair: m11 is diode-connected on ibias, m10 mirrors
/// it into vbn.
void otaMirrors(MirrorKey& key, const std::string& master) {
  key[str::toLower(master)].emplace_back("m11", "m10");
}

/// buildCurrentDac's bias: mbias is diode-connected on vbn and every
/// bit's current source mcs<i> mirrors it.
void dacMirrors(MirrorKey& key, const std::string& master, int bits) {
  auto& pairs = key[str::toLower(master)];
  for (int i = 0; i < bits; ++i) pairs.emplace_back("mbias", num("mcs", i));
}

/// Expands the per-master mirror key over every instance path under
/// `id`, walking the library's own instance tree.
void expandMirrors(const Library& lib, const MirrorKey& key, SubcktId id,
                   const std::string& prefix,
                   std::vector<GroundTruthEntry>& out) {
  const SubcktDef& def = lib.subckt(id);
  if (const auto it = key.find(str::toLower(def.name())); it != key.end()) {
    const std::string path =
        prefix.empty() ? "" : prefix.substr(0, prefix.size() - 1);
    for (const auto& [ref, mirror] : it->second) {
      out.push_back({path, ref, mirror, ConstraintLevel::kDevice,
                     ConstraintType::kCurrentMirror});
    }
  }
  for (const Instance& inst : def.instances()) {
    expandMirrors(lib, key, inst.master,
                  prefix + str::toLower(inst.name) + "/", out);
  }
}

void scaleWidths(Library& lib, double scale) {
  for (SubcktId id = 0; id < lib.subcktCount(); ++id) {
    SubcktDef& def = lib.mutableSubckt(id);
    for (DeviceId d = 0; d < def.devices().size(); ++d) {
      if (isMos(def.device(d).type)) def.mutableDevice(d).params.w *= scale;
    }
  }
}

GeneratedDesign finish(std::string name, const Library& lib,
                       std::vector<GroundTruthEntry> truth) {
  GeneratedDesign out;
  out.name = std::move(name);
  out.spice = writeSpice(lib);
  out.devices = lib.flatDeviceCount();
  out.truth = GroundTruth(std::move(truth));
  return out;
}

// --------------------------------------------------------------------
// ADC cores composed from the circuits part builders. Every master name
// carries the prefix `p`, so a design can either share one core among
// channels (p = "") or give each channel its own copy (p = "c3_"). The
// prefix sits in front so blockCategory still pairs "rdac_a"/"rdac_b".

enum class Arch { kCtdsm, kSar, kHybrid };

struct CoreSpec {
  Arch arch = Arch::kSar;
  int stages = 2;           ///< integrators (CT delta-sigma, hybrid)
  bool resDacTap = false;   ///< nonidentical resistive DACs on the last tap
  int binaryBits = 5;       ///< SAR binary capacitor bits
  int thermoCells = 8;      ///< SAR thermometer unit cells
  double otaScale = 1.0;
  double dacUnitW = 2e-6;
};

const std::vector<std::string> kCorePorts{"vinp", "vinn", "clk",  "vref",
                                          "ibias", "dout", "vdd", "vss"};

struct Composer {
  NetlistBuilder builder;
  TruthComposer truth;
  MirrorKey mirrors;

  PartsContext ctx() { return PartsContext{builder, truth}; }
};

void frontEndMasters(Composer& c, const CoreSpec& s, const std::string& p,
                     int stages) {
  for (int k = 1; k <= stages; ++k) {
    const double scale = std::max(0.5, 2.0 / k) * s.otaScale;
    circuits::buildOtaFd(c.ctx(), p + num("ota_s", k), scale);
    otaMirrors(c.mirrors, p + num("ota_s", k));
    circuits::buildIntegrator(c.ctx(), p + num("integ_s", k),
                              p + num("ota_s", k), 50e3 * k,
                              (400.0 / k) * 1e-15);
    circuits::buildCurrentDac(c.ctx(), p + num("idac_s", k), 3,
                              s.dacUnitW / k);
    dacMirrors(c.mirrors, p + num("idac_s", k), 3);
  }
}

void integratorChain(Composer& c, const std::string& parent,
                     const std::string& p, int stages) {
  for (int k = 1; k <= stages; ++k) {
    c.builder.inst(num("xint", k), p + num("integ_s", k),
                   {num("x", k) + "p", num("x", k) + "n",
                    num("x", k + 1) + "p", num("x", k + 1) + "n", "ibias",
                    "vdd", "vss"});
    c.truth.child(parent, num("xint", k), p + num("integ_s", k));
  }
}

/// A p/n pair of 3-bit current DACs cross-wired between two tap nets.
void dacPair(Composer& c, const std::string& parent, const std::string& master,
             const std::string& xp, const std::string& xn,
             const std::string& tapP, const std::string& tapN) {
  std::vector<std::string> netsP, netsN;
  for (int bit = 0; bit < 3; ++bit) {
    netsP.insert(netsP.end(), {"dout", "doutb"});
    netsN.insert(netsN.end(), {"doutb", "dout"});
  }
  netsP.insert(netsP.end(), {tapP, tapN, "vbdac", "vdd", "vss"});
  netsN.insert(netsN.end(), {tapN, tapP, "vbdac", "vdd", "vss"});
  c.builder.inst(xp, master, netsP);
  c.builder.inst(xn, master, netsN);
  c.truth.child(parent, xp, master);
  c.truth.child(parent, xn, master);
  c.truth.systemPair(parent, xp, xn);
}

void sarMasters(Composer& c, const CoreSpec& s, const std::string& p) {
  circuits::buildCapCell(c.ctx(), p + "cdac_cell");
  circuits::buildCapDacArray(c.ctx(), p + "cdac", s.binaryBits, s.thermoCells,
                             p + "cdac_cell");
  circuits::buildDff(c.ctx(), p + "dff");
  circuits::buildSarLogic(c.ctx(), p + "sar_ctl",
                          s.binaryBits + s.thermoCells, p + "dff");
  circuits::buildBootstrapSwitch(c.ctx(), p + "bsw");
}

/// The SAR conversion loop, emitted into the open subckt `parent`.
void sarBody(Composer& c, const std::string& parent, const CoreSpec& s,
             const std::string& p, const std::string& comp,
             const std::string& ckg) {
  NetlistBuilder& b = c.builder;
  TruthComposer& t = c.truth;
  b.inst("xclk", ckg, {"clk", "phi", "phib", "vdd", "vss"});
  t.child(parent, "xclk", ckg);
  b.inst("xswp", p + "bsw", {"vinp", "vsp", "phi", "phib", "vdd", "vss"});
  b.inst("xswn", p + "bsw", {"vinn", "vsn", "phi", "phib", "vdd", "vss"});
  t.child(parent, "xswp", p + "bsw");
  t.child(parent, "xswn", p + "bsw");
  t.systemPair(parent, "xswp", "xswn");
  auto arrayNets = [&](const std::string& vs, bool invert) {
    std::vector<std::string> nets{invert ? "vtopn" : "vtopp", vs, "vref",
                                  "phi"};
    for (int i = 0; i < s.binaryBits; ++i) {
      nets.push_back(num(invert ? "bb" : "b", i));
      nets.push_back(num(invert ? "b" : "bb", i));
    }
    for (int i = 0; i < s.thermoCells; ++i) {
      nets.push_back(num(invert ? "tbb" : "tb_", i));
      nets.push_back(num(invert ? "tb_" : "tbb", i));
    }
    nets.push_back("vss");
    return nets;
  };
  b.inst("xcdacp", p + "cdac", arrayNets("vsp", false));
  b.inst("xcdacn", p + "cdac", arrayNets("vsn", true));
  t.child(parent, "xcdacp", p + "cdac");
  t.child(parent, "xcdacn", p + "cdac");
  t.systemPair(parent, "xcdacp", "xcdacn");
  b.inst("xcomp", comp,
         {"vtopp", "vtopn", "phi", "phib", "cmpp", "cmpn", "vdd", "vss"});
  t.child(parent, "xcomp", comp);
  std::vector<std::string> ctl{"phi", "phib", "cmpp"};
  for (int i = 0; i < s.binaryBits + s.thermoCells; ++i) {
    if (i < s.binaryBits) {
      ctl.push_back(num("b", i));
      ctl.push_back(num("bb", i));
    } else {
      ctl.push_back(num("tb_", i - s.binaryBits));
      ctl.push_back(num("tbb", i - s.binaryBits));
    }
  }
  ctl.insert(ctl.end(), {"vdd", "vss"});
  b.inst("xctl", p + "sar_ctl", ctl);
  t.child(parent, "xctl", p + "sar_ctl");
  b.inst("xdffo", p + "dff",
         {"cmpp", "phi", "phib", "dout", "doutb", "vdd", "vss"});
  t.child(parent, "xdffo", p + "dff");
}

void decapPair(Composer& c, const std::string& parent, double farads) {
  c.builder.cap("cdecp", "vref", "vss", farads, DeviceType::kCapMim);
  c.builder.cap("cdecn", "vref", "vss", farads, DeviceType::kCapMim);
  c.truth.systemPair(parent, "cdecp", "cdecn");
}

/// Builds one ADC core as subckt `name` (ports kCorePorts).
void buildCore(Composer& c, const CoreSpec& s, const std::string& p,
               const std::string& name) {
  NetlistBuilder& b = c.builder;
  TruthComposer& t = c.truth;
  const bool frontEnd = s.arch != Arch::kSar;
  const int stages = s.arch == Arch::kHybrid ? 2 : s.stages;
  if (frontEnd) {
    frontEndMasters(c, s, p, stages);
    circuits::buildDynComparator(c.ctx(), p + "comp_q");
  } else {
    circuits::buildDynComparator(c.ctx(), p + "comp_sar");
  }
  circuits::buildClockGen(c.ctx(), p + "ckg");
  if (s.arch != Arch::kCtdsm) sarMasters(c, s, p);
  if (s.arch == Arch::kCtdsm) {
    if (s.resDacTap) {
      circuits::buildResDacVariantA(c.ctx(), p + "rdac_a");
      circuits::buildResDacVariantB(c.ctx(), p + "rdac_b");
    } else {
      circuits::buildCurrentDac(c.ctx(), p + "idac_eld", 3,
                                0.25 * s.dacUnitW);
      dacMirrors(c.mirrors, p + "idac_eld", 3);
    }
  }
  if (s.arch == Arch::kHybrid) {
    b.beginSubckt(p + "sarq",
                  {"vinp", "vinn", "clk", "vref", "dout", "vdd", "vss"});
    sarBody(c, p + "sarq", s, p, p + "comp_q", p + "ckg");
    b.endSubckt();
  }

  b.beginSubckt(name, kCorePorts);
  b.res("rbias", "ibias", "vdd", 20e3);
  decapPair(c, name, 500e-15);
  if (s.arch == Arch::kSar) {
    sarBody(c, name, s, p, p + "comp_sar", p + "ckg");
    b.endSubckt();
    return;
  }
  b.res("rinp", "vinp", "x1p", 30e3);
  b.res("rinn", "vinn", "x1n", 30e3);
  t.systemPair(name, "rinp", "rinn");
  b.res("rbdac", "vbdac", "vss", 15e3);
  integratorChain(c, name, p, stages);
  const std::string lastP = num("x", stages + 1) + "p";
  const std::string lastN = num("x", stages + 1) + "n";
  for (int tap = 1; tap <= std::min(stages, 2); ++tap) {
    dacPair(c, name, p + num("idac_s", tap), num("xdacp", tap),
            num("xdacn", tap), num("x", tap) + "p", num("x", tap) + "n");
  }
  if (s.arch == Arch::kHybrid) {
    b.inst("xsar", p + "sarq",
           {lastP, lastN, "clk", "vref", "dout", "vdd", "vss"});
    t.child(name, "xsar", p + "sarq");
    b.res("rfbb", "dout", "doutb", 10e3);
  } else {
    b.inst("xquant", p + "comp_q",
           {lastP, lastN, "clkq", "clkqb", "dout", "doutb", "vdd", "vss"});
    t.child(name, "xquant", p + "comp_q");
    b.inst("xclk", p + "ckg", {"clk", "clkq", "clkqb", "vdd", "vss"});
    t.child(name, "xclk", p + "ckg");
    if (s.resDacTap) {
      b.inst("xdacrp", p + "rdac_a", {"dout", "doutb", lastP, "vref", "vss"});
      b.inst("xdacrn", p + "rdac_b", {"doutb", "dout", lastN, "vref", "vss"});
      t.child(name, "xdacrp", p + "rdac_a");
      t.child(name, "xdacrn", p + "rdac_b");
      t.systemPair(name, "xdacrp", "xdacrn");
    } else {
      dacPair(c, name, p + "idac_eld", "xdacep", "xdacen", lastP, lastN);
    }
  }
  b.endSubckt();
}

/// Time-interleaved wrapper `name` (ports kCorePorts, so wrappers nest):
/// one instance per entry of `channelMasters` (repeated names share a
/// master) on a shared input, each driving its own matched load.
void channelWrapper(Composer& c, const std::string& name,
                    const std::vector<std::string>& channelMasters) {
  NetlistBuilder& b = c.builder;
  TruthComposer& t = c.truth;
  b.beginSubckt(name, kCorePorts);
  b.res("rout", "dout", "vss", 1e3);
  const int n = static_cast<int>(channelMasters.size());
  for (int j = 0; j < n; ++j) {
    const std::string& master = channelMasters[static_cast<std::size_t>(j)];
    b.inst(num("xch", j), master,
           {"vinp", "vinn", "clk", "vref", "ibias", num("dout", j), "vdd",
            "vss"});
    t.child(name, num("xch", j), master);
    b.cap(num("cl", j), num("dout", j), "vss", 20e-15);
    for (int i = 0; i < j; ++i) {
      t.systemPair(name, num("xch", i), num("xch", j));
      t.systemPair(name, num("cl", i), num("cl", j));
    }
  }
  b.endSubckt();
}

CoreSpec randomCore(SeededRng& rng, Arch arch) {
  CoreSpec s;
  s.arch = arch;
  s.stages = rng.between(2, 4);
  s.resDacTap = rng.between(0, 1) == 1;
  s.binaryBits = rng.between(4, 7);
  s.thermoCells = rng.between(6, 14);
  s.otaScale = rng.uniform(0.6, 1.6);
  s.dacUnitW = rng.uniform(1e-6, 3e-6);
  return s;
}

GeneratedDesign composed(Composer& c, const std::string& name,
                         double widthScale) {
  Library lib = c.builder.build(name);
  scaleWidths(lib, widthScale);
  std::vector<GroundTruthEntry> truth = c.truth.expand(name);
  expandMirrors(lib, c.mirrors, lib.top(), "", truth);
  return finish(name, lib, std::move(truth));
}

/// A paper circuit as generator output: its own SPICE text and truth.
/// The paper ADCs are assembled from the same part builders, whose
/// mirror labels TruthComposer cannot carry; they are added here from the
/// masters' names (ota_s*: buildOtaFd, idac*: 3-bit buildCurrentDac).
std::vector<GroundTruthEntry> paperTruth(
    const circuits::CircuitBenchmark& bench) {
  std::vector<GroundTruthEntry> truth = bench.truth.entries();
  if (bench.category != "ADC") return truth;
  MirrorKey key;
  for (SubcktId id = 0; id < bench.lib.subcktCount(); ++id) {
    const std::string& name = bench.lib.subckt(id).name();
    if (name.rfind("ota_s", 0) == 0) otaMirrors(key, name);
    if (name.rfind("idac", 0) == 0) dacMirrors(key, name, 3);
  }
  expandMirrors(bench.lib, key, bench.lib.top(), "", truth);
  return truth;
}

std::vector<circuits::CircuitBenchmark> paperCircuits(Size size) {
  std::vector<circuits::CircuitBenchmark> out = circuits::blockBenchmarks();
  for (auto& adc : circuits::adcBenchmarks()) out.push_back(std::move(adc));
  if (size == Size::kTiny) {
    // Four blocks and the smallest ADC keep the self-test fast.
    std::vector<circuits::CircuitBenchmark> tiny;
    for (std::size_t i : {0u, 6u, 12u, 14u, 15u}) {
      tiny.push_back(std::move(out[i]));
    }
    return tiny;
  }
  return out;
}

constexpr std::uint64_t kStructureSeed = 0xc01d;
constexpr std::uint64_t kEvaluationSeed = 0xe7a1;

}  // namespace

GeneratedDesign coldMixDesign(std::uint64_t seed, std::size_t index,
                              Size size) {
  // Structure follows a fixed schedule, so every run serves the same size
  // mix and only machine noise separates runs; the seed sets the sizing.
  SeededRng rng(mixSeed(kStructureSeed, index));
  // Distinct per-design sizing: W is written with 6 significant digits,
  // and steps of 1e-5 on the scale stay distinct after that rounding for
  // 30000 consecutive designs.
  const double widthScale =
      0.85 + static_cast<double>((index * 7919 + seed % 30000) % 30000) * 1e-5;
  const std::string name = "adc_" + std::to_string(index);
  Composer c;
  switch (index % 4) {
    case 0:
      buildCore(c, randomCore(rng, Arch::kCtdsm), "", name);
      break;
    case 1:
      buildCore(c, randomCore(rng, Arch::kSar), "", name);
      break;
    case 2:
      buildCore(c, randomCore(rng, Arch::kHybrid), "", name);
      break;
    default: {
      const Arch arch = static_cast<Arch>(rng.between(0, 2));
      buildCore(c, randomCore(rng, arch), "", "core");
      const int channels =
          size == Size::kTiny ? 2 : rng.between(3, arch == Arch::kCtdsm ? 8 : 6);
      channelWrapper(c, name, std::vector<std::string>(
                                  static_cast<std::size_t>(channels), "core"));
      break;
    }
  }
  return composed(c, name, widthScale);
}

std::vector<GeneratedDesign> servePool(Size size) {
  std::vector<GeneratedDesign> pool;
  std::vector<circuits::CircuitBenchmark> paper = paperCircuits(size);
  std::vector<std::size_t> adcs;
  for (std::size_t i = 0; i < paper.size(); ++i) {
    if (paper[i].category == "ADC") adcs.push_back(i);
    pool.push_back(finish(paper[i].name, paper[i].lib, paperTruth(paper[i])));
  }
  // Variants: a wrapper instantiating a paper ADC's top cell on two and on
  // four channels. Its text carries the ADC's masters verbatim, so every
  // block (and each channel as a whole) hashes like the paper design's.
  for (const int channels : {2, 4}) {
    for (const std::size_t a : adcs) {
      const circuits::CircuitBenchmark& adc = paper[a];
      const std::string name = adc.name + "_x" + std::to_string(channels);
      std::string text = writeSpice(adc.lib);
      text.resize(text.rfind(".end"));
      const SubcktDef& top = adc.lib.subckt(adc.lib.top());
      text += ".subckt " + name + " vinp vinn clk vref vdd vss\n";
      std::vector<GroundTruthEntry> truth;
      const std::vector<GroundTruthEntry> inner = paperTruth(adc);
      for (int j = 0; j < channels; ++j) {
        const std::string inst = num("xch", j);
        text += inst;
        for (const NetId port : top.ports()) {
          const std::string& net = top.net(port).name;
          const bool shared = net == "vinp" || net == "vinn" || net == "clk" ||
                              net == "vref" || net == "ibias" ||
                              net == "vdd" || net == "vss";
          text += ' ' + (shared ? net : net + "_" + std::to_string(j));
        }
        text += ' ' + top.name() + '\n';
        for (const GroundTruthEntry& e : inner) {
          GroundTruthEntry moved = e;
          moved.hierPath = e.hierPath.empty() ? inst : inst + "/" + e.hierPath;
          truth.push_back(std::move(moved));
        }
        for (int i = 0; i < j; ++i) {
          truth.push_back({"", num("xch", i), inst, ConstraintLevel::kSystem,
                           ConstraintType::kSymmetryPair});
        }
      }
      const std::string capModel(deviceTypeName(DeviceType::kCapMim));
      text += "cdecp vref vss 1e-12 " + capModel + "\n";
      text += "cdecn vref vss 1e-12 " + capModel + "\n";
      truth.push_back({"", "cdecp", "cdecn", ConstraintLevel::kSystem,
                       ConstraintType::kSymmetryPair});
      text += ".ends " + name + "\n.end\n";
      GeneratedDesign d;
      d.name = name;
      d.spice = std::move(text);
      d.devices = static_cast<std::size_t>(channels) * adc.lib.flatDeviceCount() + 2;
      d.truth = GroundTruth(std::move(truth));
      pool.push_back(std::move(d));
    }
  }
  // Popularity follows size: the smallest design is the most requested.
  std::stable_sort(pool.begin(), pool.end(),
                   [](const GeneratedDesign& a, const GeneratedDesign& b) {
                     return a.devices < b.devices;
                   });
  return pool;
}

ZipfStream::ZipfStream(std::uint64_t seed, std::size_t poolSize)
    : seed_(seed), cdf_(poolSize) {
  double total = 0.0;
  for (std::size_t r = 0; r < poolSize; ++r) {
    total += 1.0 / static_cast<double>(r + 1);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
}

std::size_t ZipfStream::draw(std::size_t requestIndex) const {
  SeededRng rng(mixSeed(seed_ ^ 0x7a1f, requestIndex));
  const double u = rng.uniform(0.0, 1.0);
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                               cdf_.size() - 1);
}

EcoChain::EcoChain(std::uint64_t seed, Size size) : rng_(mixSeed(seed, 0xec0)) {
  // A fixed design: two banks of two hybrid channels, 2120 devices (tiny:
  // one bank of two CT delta-sigma channels), every channel with its own
  // prefixed copy of the masters. top / bank / channel / SAR quantizer /
  // capacitor DAC / unit cell is six levels deep. The seed drives the
  // edits only.
  const bool tiny = size == Size::kTiny;
  const int banks = tiny ? 1 : 2;
  const int perBank = 2;
  CoreSpec spec;
  spec.arch = tiny ? Arch::kCtdsm : Arch::kHybrid;
  spec.binaryBits = 5;
  spec.thermoCells = 10;
  Composer c;
  std::vector<std::string> bankMasters;
  for (int k = 0; k < banks; ++k) {
    std::vector<std::string> channels;
    for (int j = 0; j < perBank; ++j) {
      const int id = k * perBank + j;
      buildCore(c, spec, num("c", id) + "_", num("chan", id));
      channels.push_back(num("chan", id));
    }
    channelWrapper(c, num("bank", k), channels);
    bankMasters.push_back(num("bank", k));
  }
  channelWrapper(c, "eco_top", bankMasters);
  lib_ = c.builder.build("eco_top");
  std::vector<GroundTruthEntry> truth = c.truth.expand("eco_top");
  expandMirrors(lib_, c.mirrors, lib_.top(), "", truth);
  base_ = finish("eco_top", lib_, std::move(truth));

  // Edits may touch any device of a master instantiated exactly once.
  std::vector<int> uses(lib_.subcktCount(), 0);
  std::vector<SubcktId> stack{lib_.top()};
  uses[lib_.top()] = 1;
  while (!stack.empty()) {
    const SubcktId id = stack.back();
    stack.pop_back();
    for (const Instance& inst : lib_.subckt(id).instances()) {
      if (uses[inst.master]++ == 0) stack.push_back(inst.master);
    }
  }
  for (SubcktId id = 0; id < lib_.subcktCount(); ++id) {
    if (uses[id] != 1) continue;
    const SubcktDef& def = lib_.subckt(id);
    for (DeviceId d = 0; d < def.devices().size(); ++d) {
      editable_.push_back({id, d, def.device(d).params});
    }
  }
}

std::string EcoChain::next() {
  const Editable& e = editable_[rng_.next() % editable_.size()];
  Device& dev = lib_.mutableSubckt(e.subckt).mutableDevice(e.device);
  // Rescale from the original value so a long chain stays in range.
  const double factor = rng_.uniform(0.7, 1.3);
  if (isMos(dev.type)) {
    dev.params.w = e.original.w * factor;
  } else {
    dev.params.value = e.original.value * factor;
  }
  return writeSpice(lib_);
}

std::vector<GeneratedDesign> evaluationSet(Size size) {
  std::vector<GeneratedDesign> out;
  for (const circuits::CircuitBenchmark& bench : paperCircuits(size)) {
    out.push_back(finish(bench.name, bench.lib, paperTruth(bench)));
  }
  const std::size_t generated = size == Size::kTiny ? 2 : 20;
  for (std::size_t i = 0; i < generated; ++i) {
    out.push_back(coldMixDesign(kEvaluationSeed, i, size));
  }
  return out;
}

std::vector<GeneratedDesign> trainCorpus(std::uint64_t seed, Size size) {
  std::vector<circuits::CircuitBenchmark> paper = paperCircuits(size);
  std::vector<GeneratedDesign> corpus;
  for (const circuits::CircuitBenchmark& bench : paper) {
    corpus.push_back(finish(bench.name, bench.lib, paperTruth(bench)));
  }
  // One sized variant of each paper ADC: every MOS width rescaled by a
  // seeded factor away from 1.
  SeededRng rng(mixSeed(seed, 0x7a17));
  for (const circuits::CircuitBenchmark& bench : paper) {
    if (bench.category != "ADC") continue;
    Library lib = bench.lib;
    scaleWidths(lib, rng.between(0, 1) ? rng.uniform(0.6, 0.9)
                                       : rng.uniform(1.15, 1.6));
    corpus.push_back(finish(bench.name + "_sized", lib, paperTruth(bench)));
  }
  return corpus;
}

}  // namespace e2e
