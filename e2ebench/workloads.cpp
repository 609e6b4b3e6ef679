#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "core/candidates.h"
#include "core/circuit_hash.h"
#include "core/constraint_io.h"
#include "core/embedding.h"
#include "core/engine.h"
#include "core/library_diff.h"
#include "core/trainer.h"
#include "eval/ground_truth.h"
#include "netlist/spice_parser.h"
#include "spans.h"
#include "util/json.h"
#include "util/parallel.h"
#include "util/resource.h"

namespace e2e {

using namespace ancstr;

namespace {

// ---------------------------------------------------------------- settings

constexpr int kSetupReps = 5;     ///< setup_s is the median of these
constexpr int kSetupEpochs = 10;  ///< serving model training
constexpr std::uint64_t kModelSeed = 7;
/// The serving model's corpus is the same for every run seed, so accuracy
/// differences between runs come from the inputs served, not the model.
constexpr std::uint64_t kServingCorpusSeed = 1;
constexpr int kJobEpochs = 3;        ///< train: epochs per training job
constexpr double kMaxLoopSeconds = 100.0;  ///< hard stop, under any speed

/// Requests a run makes at least, whatever --seconds says: p90 then has
/// at least 10 samples beyond it.
std::size_t minRequests(Size size) { return size == Size::kTiny ? 12 : 110; }

PipelineConfig pipelineConfig(int epochs) {
  PipelineConfig config;
  config.train.epochs = epochs;
  config.seed = kModelSeed;
  config.threads = 1;
  return config;
}

bool keepGoing(Clock::time_point loopStart, std::size_t done,
               const Options& o) {
  const double elapsed = secondsSince(loopStart);
  if (elapsed >= kMaxLoopSeconds) return false;
  return elapsed < o.seconds || done < minRequests(o.size);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// --------------------------------------------------------- correctness

bool sameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool sameScored(const std::vector<ScoredCandidate>& a,
                const std::vector<ScoredCandidate>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const CandidatePair& pa = a[i].pair;
    const CandidatePair& pb = b[i].pair;
    if (pa.hierarchy != pb.hierarchy || pa.level != pb.level ||
        !(pa.a == pb.a) || !(pa.b == pb.b) || pa.nameA != pb.nameA ||
        pa.nameB != pb.nameB || a[i].accepted != b[i].accepted ||
        !sameBits(a[i].similarity, b[i].similarity)) {
      return false;
    }
  }
  return true;
}

bool sameMatrix(const nn::Matrix& a, const nn::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Bitwise equality of everything extraction returns but the report.
bool sameResult(const ExtractionResult& a, const ExtractionResult& b) {
  const DetectionResult& da = a.detection;
  const DetectionResult& db = b.detection;
  return sameBits(da.systemThreshold, db.systemThreshold) &&
         sameBits(da.deviceThreshold, db.deviceThreshold) &&
         sameBits(da.mirrorThreshold, db.mirrorThreshold) &&
         sameScored(da.scored, db.scored) &&
         sameScored(da.mirrorScored, db.mirrorScored) && da.set == db.set &&
         sameMatrix(a.embeddings, b.embeddings);
}

/// The ALIGN file read back: per-type counts must equal the set's.
/// (parseConstraintsJson reads only the native format, so the file is
/// read with the library's JSON parser.)
bool alignRoundTrips(const std::string& text, const ConstraintSet& set) {
  try {
    std::string error;
    const std::optional<Json> root = Json::parse(text, &error);
    if (!root || root->get("format").asString() != "align-constraints") {
      return false;
    }
    std::size_t pairs = 0, selfSymmetric = 0, mirrors = 0;
    const Json& cells = root->get("cells");
    for (const std::string& cell : cells.keys()) {
      const Json& entries = cells.get(cell);
      for (std::size_t i = 0; i < entries.size(); ++i) {
        const Json& entry = entries.at(i);
        const std::string& kind = entry.get("constraint").asString();
        if (kind == "SymmetricBlocks") {
          const Json& members = entry.get("pairs");
          for (std::size_t j = 0; j < members.size(); ++j) {
            if (members.at(j).size() == 2) ++pairs;
            if (members.at(j).size() == 1) ++selfSymmetric;
          }
        } else if (kind == "CurrentMirror") {
          mirrors += entry.get("mirrors").size();
        }
      }
    }
    return pairs == set.count(ConstraintType::kSymmetryPair) &&
           selfSymmetric == set.count(ConstraintType::kSelfSymmetric) &&
           mirrors == set.count(ConstraintType::kCurrentMirror);
  } catch (const std::exception&) {
    return false;
  }
}

struct Quality {
  ConfusionCounts system, device, mirror;

  void add(const FlatDesign& design, const DetectionResult& detection,
           const GroundTruth& truth) {
    const std::vector<bool> labels =
        labelCandidates(design, detection.scored, truth);
    system += confusionFromScored(detection.scored, labels,
                                  ConstraintLevel::kSystem);
    device += confusionFromScored(detection.scored, labels,
                                  ConstraintLevel::kDevice);
    mirror += confusionFromScored(
        detection.mirrorScored,
        labelMirrorCandidates(design, detection.mirrorScored, truth));
  }

};

/// Accuracy of the serving model on the fixed evaluation set, outside
/// any timed region.
Quality evaluate(const Pipeline& pipeline, Size size) {
  Quality q;
  for (const GeneratedDesign& d : evaluationSet(size)) {
    const Library lib = parseSpice(d.spice);
    q.add(FlatDesign::elaborate(lib), pipeline.extract(lib).detection,
          d.truth);
  }
  return q;
}

// ------------------------------------------------------------- metrics

/// Everything the end-to-end metrics are computed from.
struct EndToEnd {
  std::vector<double> setupSeconds;
  std::vector<double> latencyMs;
  double timedSeconds = 0.0;
  double devices = 0.0;
  Quality quality;
  double trainGraphPasses = 0.0;  ///< graphs x epochs trained
  double trainSeconds = 0.0;
  std::vector<double> trainLosses;
};

void add(RunResult& r, std::string name, double value, std::string unit,
         std::uint64_t samples) {
  r.metrics.push_back(Metric{std::move(name), value, std::move(unit), samples});
}

/// The end-to-end metrics. A traced run prints them as text beside its
/// per-layer table; its result line carries the per-layer metrics only.
void emitEndToEnd(const EndToEnd& e, const Options& o, RunResult& r) {
  RunResult m;
  const auto n = static_cast<std::uint64_t>(e.latencyMs.size());
  add(m, "setup_s", quantile(e.setupSeconds, 0.5), "s", e.setupSeconds.size());
  add(m, "latency_p50_ms", quantile(e.latencyMs, 0.5), "ms", n);
  add(m, "latency_p90_ms", quantile(e.latencyMs, 0.9), "ms", n);
  add(m, "devices_per_s", ratio(e.devices, e.timedSeconds), "1/s", n);
  add(m, "peak_rss_mb",
      static_cast<double>(util::peakRssBytes()) / (1024.0 * 1024.0), "MB", 1);
  add(m, "system_f1", computeMetrics(e.quality.system).f1, "ratio",
      e.quality.system.total());
  add(m, "device_f1", computeMetrics(e.quality.device).f1, "ratio",
      e.quality.device.total());
  add(m, "mirror_f1", computeMetrics(e.quality.mirror).f1, "ratio",
      e.quality.mirror.total());
  add(m, "train_graphs_per_s", ratio(e.trainGraphPasses, e.trainSeconds),
      "1/s", static_cast<std::uint64_t>(e.trainGraphPasses));
  add(m, "train_loss", quantile(e.trainLosses, 0.5), "loss",
      e.trainLosses.size());

  r.report += "setup runs (s):";
  for (const double s : e.setupSeconds) r.report += " " + std::to_string(s);
  r.report += "\n";
  char line[160];
  if (o.trace) {
    for (const Metric& metric : m.metrics) {
      std::snprintf(line, sizeof(line), "end-to-end, traced run: %s %.6g %s\n",
                    metric.name.c_str(), metric.value, metric.unit.c_str());
      r.report += line;
    }
  } else {
    r.metrics = std::move(m.metrics);
  }
  std::snprintf(line, sizeof(line), "failed_frac %.6f (%llu of %llu)\n",
                ratio(static_cast<double>(r.failed),
                      static_cast<double>(r.attempted)),
                static_cast<unsigned long long>(r.failed),
                static_cast<unsigned long long>(r.attempted));
  r.report += line;
}

/// Per-request counts the traced run takes from public return values.
struct TraceCounts {
  double edges = 0, candidates = 0, blockNodes = 0, constraints = 0,
         exportBytes = 0;
  EngineCacheStats cache;        ///< engine counter deltas over the run
  util::DiskCacheStats disk;
  double dirtyNodes = 0, allNodes = 0;
  double blockHits = 0, blockLookups = 0, pairHits = 0, pairLookups = 0;
  double trainEpochs = 0;  ///< epochs run by traced training jobs
  /// Request latencies with and without spans, for trace.overhead_frac.
  std::vector<double> tracedMs, untracedMs;
};

double hitRatio(const util::LruCacheStats& s) {
  return ratio(static_cast<double>(s.hits),
               static_cast<double>(s.hits + s.misses));
}

util::LruCacheStats minus(const util::LruCacheStats& a,
                          const util::LruCacheStats& b) {
  util::LruCacheStats d;
  d.hits = a.hits - b.hits;
  d.misses = a.misses - b.misses;
  d.evictions = a.evictions - b.evictions;
  return d;
}

EngineCacheStats minus(const EngineCacheStats& a, const EngineCacheStats& b) {
  return {minus(a.design, b.design), minus(a.blocks, b.blocks),
          minus(a.pairs, b.pairs)};
}

void emitPerLayer(const SpanRecorder& recorder, const TraceCounts& c,
                  const Options& o, RunResult& r) {
  const TraceSummary t = summarize(recorder.spans());
  const std::uint64_t n = t.requests;
  const double perRequest = n > 0 ? 1.0 / static_cast<double>(n) : 0.0;
  auto ms = [&](const char* layer) { return 1e3 * t.total(layer) * perRequest; };
  auto perCall = [&](const char* layer) {
    for (const LayerStats& l : t.layers) {
      if (l.name == layer) return 1e3 * l.total / static_cast<double>(l.count);
    }
    return 0.0;
  };
  add(r, "netlist.parse_ms", ms("netlist.parse"), "ms", n);
  add(r, "netlist.elaborate_ms", ms("netlist.elaborate"), "ms", n);
  add(r, "core.hash_ms", ms("core.hash"), "ms", n);
  add(r, "core.graph_build_ms", ms("core.graph_build"), "ms", n);
  add(r, "core.graph_edges", c.edges * perRequest, "count", n);
  add(r, "core.features_ms", ms("core.features"), "ms", n);
  add(r, "core.prepare_ms", ms("core.prepare"), "ms", n);
  add(r, "nn.infer_ms", ms("nn.infer"), "ms", n);
  add(r, "core.candidates_ms", ms("core.candidates"), "ms", n);
  add(r, "core.candidates", c.candidates * perRequest, "count", n);
  add(r, "core.block_embed_ms", ms("core.block_embed"), "ms", n);
  add(r, "core.block_nodes", c.blockNodes * perRequest, "count", n);
  add(r, "core.detect_ms", ms("core.detect"), "ms", n);
  add(r, "core.constraints", c.constraints * perRequest, "count", n);
  add(r, "core.export_ms", ms("core.export"), "ms", n);
  add(r, "core.export_bytes", c.exportBytes * perRequest, "bytes", n);
  add(r, "engine.extract_ms", ms("engine.extract"), "ms", n);
  add(r, "engine.design_hit_ratio", hitRatio(c.cache.design), "ratio",
      c.cache.design.hits + c.cache.design.misses);
  add(r, "engine.block_hit_ratio", hitRatio(c.cache.blocks), "ratio",
      c.cache.blocks.hits + c.cache.blocks.misses);
  add(r, "engine.pair_hit_ratio", hitRatio(c.cache.pairs), "ratio",
      c.cache.pairs.hits + c.cache.pairs.misses);
  add(r, "engine.disk_hit_ratio",
      ratio(static_cast<double>(c.disk.hits),
            static_cast<double>(c.disk.hits + c.disk.misses)),
      "ratio", c.disk.hits + c.disk.misses);
  add(r, "engine.evictions",
      static_cast<double>(c.cache.design.evictions + c.cache.blocks.evictions +
                          c.cache.pairs.evictions),
      "count", n);
  add(r, "core.diff_ms", ms("core.diff"), "ms", n);
  add(r, "engine.delta.dirty_frac", ratio(c.dirtyNodes, c.allNodes), "ratio",
      n);
  add(r, "engine.delta.block_reuse_ratio", ratio(c.blockHits, c.blockLookups),
      "ratio", n);
  add(r, "engine.delta.pair_reuse_ratio", ratio(c.pairHits, c.pairLookups),
      "ratio", n);
  add(r, "core.train_prepare_ms", ms("core.train_prepare"), "ms", n);
  add(r, "core.train_epoch_ms",
      c.trainEpochs > 0 ? 1e3 * t.total("core.train_loop") / c.trainEpochs : 0,
      "ms", static_cast<std::uint64_t>(c.trainEpochs));
  add(r, "nn.forward_ms", perCall("nn.forward"), "ms", n);
  add(r, "nn.embed_ms", perCall("nn.embed"), "ms", n);
  const double untraced = quantile(c.untracedMs, 0.5);
  add(r, "trace.overhead_frac",
      untraced > 0 ? quantile(c.tracedMs, 0.5) / untraced - 1.0 : 0.0,
      "ratio", c.tracedMs.size());
  add(r, "trace.unattributed_frac",
      ratio(t.unattributedSeconds, t.requestSeconds), "ratio", n);

  r.report += renderTable(t);
  const std::filesystem::path dump =
      o.workDir / (o.workload + "-" + std::to_string(o.seed) + ".spans.jsonl");
  writeSpans(recorder.spans(), dump);
  r.report += "spans written to " + dump.string() + "\n";
}

// -------------------------------------------------------------- shared

/// The serving model every workload trains in setup: fixed seed, epochs
/// and corpus.
struct ServingModel {
  std::unique_ptr<Pipeline> pipeline;
  double graphPasses = 0.0;
  double trainSeconds = 0.0;
  double finalLoss = 0.0;
};

std::vector<Library> parseAll(const std::vector<GeneratedDesign>& designs) {
  std::vector<Library> libs;
  libs.reserve(designs.size());
  for (const GeneratedDesign& d : designs) {
    libs.push_back(parseSpice(d.spice, d.name + ".sp"));
  }
  return libs;
}

std::unique_ptr<ServingModel> trainServingModel(const Options& o) {
  auto m = std::make_unique<ServingModel>();
  const std::vector<Library> libs =
      parseAll(trainCorpus(kServingCorpusSeed, o.size));
  std::vector<const Library*> corpus;
  for (const Library& lib : libs) corpus.push_back(&lib);
  m->pipeline = std::make_unique<Pipeline>(pipelineConfig(kSetupEpochs));
  const Clock::time_point start = Clock::now();
  const TrainReport report = m->pipeline->train(corpus);
  m->trainSeconds = secondsSince(start);
  m->graphPasses = static_cast<double>(corpus.size() * kSetupEpochs);
  m->finalLoss = report.finalLoss();
  return m;
}

/// One request as a layout flow makes it: SPICE text in, ALIGN file out.
struct Served {
  ExtractionResult result;
  std::string align;
  std::size_t devices = 0;
};

Served serve(const ExtractionEngine& engine, const std::string& spice) {
  const Library lib = parseSpice(spice);
  Served s;
  s.result = engine.extract(lib);
  const FlatDesign design = FlatDesign::elaborate(lib);
  s.align = constraintSetToAlignJson(design, s.result.detection.set);
  s.devices = design.devices().size();
  return s;
}

// Benchmark-owned caches behind the library's public memoization hooks,
// so the traced run can compose a cached extraction from per-layer calls.
class MapBlockCache : public BlockEmbeddingCache {
 public:
  std::shared_ptr<const CachedBlockEmbedding> lookup(
      const util::StructuralHash& key) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    return it == entries_.end() ? nullptr : it->second;
  }
  void store(const util::StructuralHash& key,
             std::shared_ptr<const CachedBlockEmbedding> entry) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    entries_[key] = std::move(entry);
  }

 private:
  std::mutex mutex_;
  std::unordered_map<util::StructuralHash,
                     std::shared_ptr<const CachedBlockEmbedding>>
      entries_;
};

class MapPairCache : public PairScoreCache {
 public:
  bool lookup(const PairScoreKey& key, double* similarity) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    if (it == entries_.end()) return false;
    *similarity = it->second;
    return true;
  }
  void store(const PairScoreKey& key, double similarity) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    entries_[key] = similarity;
  }

 private:
  std::mutex mutex_;
  std::unordered_map<PairScoreKey, double, PairScoreKeyHash> entries_;
};

/// The engine's extraction after hashing, one span per public layer call
/// in the engine's order: Alg. 1 graph, features, prepared graph, GNN
/// inference, candidates, Alg. 2 block embedding (its results land in
/// `blocks`, so the detector's own embedding pass hits them), Alg. 3.
ExtractionResult composeExtraction(
    const Pipeline& pipeline, const Library& lib, const FlatDesign& design,
    const std::vector<util::StructuralHash>& nodeHashes, MapBlockCache& blocks,
    MapPairCache& pairs, SpanRecorder& rec, std::uint64_t request,
    TraceCounts& counts) {
  const PipelineConfig& config = pipeline.config();
  std::optional<CircuitGraph> graph;
  {
    SpanRecorder::Scope s(rec, "core.graph_build", request);
    graph.emplace(buildHeteroGraph(design, config.graph));
  }
  counts.edges += static_cast<double>(graph->graph.numEdges());
  nn::Matrix features;
  {
    SpanRecorder::Scope s(rec, "core.features", request);
    features = buildFeatureMatrix(design, config.features);
  }
  PreparedGraph prepared;
  {
    SpanRecorder::Scope s(rec, "core.prepare", request);
    prepared = prepareGraph(*graph, std::move(features));
  }
  ExtractionResult result;
  {
    SpanRecorder::Scope s(rec, "nn.infer", request);
    result.embeddings = pipeline.model().embed(prepared);
  }
  DetectorConfig detector = config.detector;
  detector.graphOptions = config.graph;
  CandidateSet candidates;
  {
    SpanRecorder::Scope s(rec, "core.candidates", request);
    candidates = enumerateCandidates(design, lib);
  }
  counts.candidates += static_cast<double>(candidates.pairs.size());
  // Block endpoints in first-appearance order, as the detector lists them.
  std::vector<HierNodeId> blockNodes;
  std::unordered_map<HierNodeId, bool> seen;
  for (const CandidatePair& pair : candidates.pairs) {
    if (pair.a.kind != ModuleKind::kBlock) continue;
    for (const HierNodeId node : {pair.a.id, pair.b.id}) {
      if (seen.emplace(node, true).second) blockNodes.push_back(node);
    }
  }
  counts.blockNodes += static_cast<double>(blockNodes.size());
  const BlockEmbeddingContext context{pipeline.model(), config.features,
                                      &blocks, &nodeHashes};
  {
    SpanRecorder::Scope s(rec, "core.block_embed", request);
    util::ThreadPool pool(util::resolveThreadCount(config.threads));
    embedSubcircuits(design, blockNodes, result.embeddings, detector.embedding,
                     detector.graphOptions, &context, pool,
                     /*computeHashes=*/true);
  }
  {
    SpanRecorder::Scope s(rec, "core.detect", request);
    result.detection = detectConstraints(design, lib, result.embeddings,
                                         detector, context, &pairs,
                                         config.threads);
  }
  counts.constraints += static_cast<double>(result.detection.set.size());
  return result;
}

/// The export half of a traced request: the flow elaborates the design
/// for names and writes the ALIGN file.
std::string tracedExport(const Library& lib, const ConstraintSet& set,
                         SpanRecorder& rec, std::uint64_t request,
                         TraceCounts& counts) {
  std::optional<FlatDesign> design;
  {
    SpanRecorder::Scope s(rec, "netlist.elaborate", request);
    design.emplace(FlatDesign::elaborate(lib));
  }
  std::string align;
  {
    SpanRecorder::Scope s(rec, "core.export", request);
    align = constraintSetToAlignJson(*design, set);
  }
  counts.exportBytes += static_cast<double>(align.size());
  return align;
}

template <typename Setup>
std::unique_ptr<Setup> timedSetups(EndToEnd& e,
                                   std::unique_ptr<Setup> (*make)(const Options&),
                                   const Options& o) {
  std::unique_ptr<Setup> kept;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    kept.reset();  // tear the previous setup down outside the timing
    const Clock::time_point start = Clock::now();
    kept = make(o);
    e.setupSeconds.push_back(secondsSince(start));
    e.trainGraphPasses += kept->model->graphPasses;
    e.trainSeconds += kept->model->trainSeconds;
  }
  e.trainLosses.assign(1, kept->model->finalLoss);
  return kept;
}

// ------------------------------------------------------------ cold_mix
//
// A stream of distinct ADC-class designs on one long-lived engine: no two
// share a design or block hash, so every layer does its full work and the
// caches see inserts and evictions only.

struct ColdSetup {
  std::unique_ptr<ServingModel> model;
  std::unique_ptr<ExtractionEngine> engine;
};

std::unique_ptr<ColdSetup> makeColdSetup(const Options& o) {
  auto s = std::make_unique<ColdSetup>();
  s->model = trainServingModel(o);
  EngineConfig config;
  config.cacheBudgetBytes = 8u << 20;
  s->engine = std::make_unique<ExtractionEngine>(*s->model->pipeline, config);
  // Warm-up on a design from another seed, so it never repeats in the stream.
  serve(*s->engine, coldMixDesign(mixSeed(o.seed, 0x3a7), 1, o.size).spice);
  return s;
}

RunResult coldMix(const Options& o) {
  RunResult r;
  EndToEnd e;
  const std::unique_ptr<ColdSetup> setup = timedSetups(e, makeColdSetup, o);
  const Pipeline& pipeline = *setup->model->pipeline;
  const PipelineConfig& config = pipeline.config();
  SpanRecorder rec(Clock::now());
  TraceCounts counts;
  const EngineCacheStats before = setup->engine->cacheStats();

  const Clock::time_point loopStart = Clock::now();
  for (std::size_t i = 0; keepGoing(loopStart, i, o); ++i) {
    const GeneratedDesign d = coldMixDesign(o.seed, i, o.size);
    ++r.attempted;
    try {
      const Clock::time_point start = Clock::now();
      const Served served = serve(*setup->engine, d.spice);
      const double seconds = secondsSince(start);
      e.latencyMs.push_back(1e3 * seconds);
      e.timedSeconds += seconds;
      e.devices += static_cast<double>(served.devices);
      bool ok = alignRoundTrips(served.align, served.result.detection.set);
      if (o.trace) {
        // The same request composed from per-layer calls must reproduce
        // the engine's result bit for bit.
        const std::uint64_t id = i + 1;
        const Clock::time_point tracedStart = Clock::now();
        ExtractionResult composed;
        std::string align;
        {
          SpanRecorder::Scope request(rec, "request", id);
          std::optional<Library> lib;
          {
            SpanRecorder::Scope s(rec, "netlist.parse", id);
            lib.emplace(parseSpice(d.spice));
          }
          std::optional<FlatDesign> design;
          {
            SpanRecorder::Scope s(rec, "netlist.elaborate", id);
            design.emplace(FlatDesign::elaborate(*lib));
          }
          std::vector<util::StructuralHash> nodeHashes;
          {
            SpanRecorder::Scope s(rec, "core.hash", id);
            (void)structuralHash(*design, config.graph, config.features);
            nodeHashes = subtreeHashes(*design, config.graph, config.features);
          }
          MapBlockCache blocks;
          MapPairCache pairs;
          composed = composeExtraction(pipeline, *lib, *design, nodeHashes,
                                       blocks, pairs, rec, id, counts);
          align = tracedExport(*lib, composed.detection.set, rec, id, counts);
        }
        counts.tracedMs.push_back(1e3 * secondsSince(tracedStart));
        counts.untracedMs.push_back(1e3 * seconds);
        ok = ok && sameResult(composed, served.result) && align == served.align;
      }
      if (!ok) ++r.failed;
    } catch (const std::exception& ex) {
      ++r.failed;
      r.report += std::string("request failed: ") + ex.what() + "\n";
    }
  }
  r.correct = r.failed == 0;
  e.quality = evaluate(*setup->model->pipeline, o.size);
  emitEndToEnd(e, o, r);
  if (o.trace) {
    counts.cache = minus(setup->engine->cacheStats(), before);
    emitPerLayer(rec, counts, o, r);
  }
  return r;
}

// ----------------------------------------------------------- serve_mix
//
// Zipf-popular traffic over a fixed pool on two client threads sharing
// one engine with a memory budget below the pool's working set, the disk
// tier and the run ledger on: the read side of the cache layer.

struct Reference {
  ExtractionResult result;
  std::string align;
  std::size_t devices = 0;
};

struct ServeSetup {
  std::unique_ptr<ServingModel> model;
  std::vector<GeneratedDesign> pool;
  std::vector<Reference> refs;
  std::filesystem::path dir;
  std::unique_ptr<ExtractionEngine> engine;
  bool referencesOk = true;

  ~ServeSetup() {
    engine.reset();  // drains the write-behind disk and ledger writers
    std::error_code ignored;
    std::filesystem::remove_all(dir, ignored);
  }
};

std::unique_ptr<ServeSetup> makeServeSetup(const Options& o) {
  static int generation = 0;
  auto s = std::make_unique<ServeSetup>();
  s->dir = o.workDir / ("serve-" + std::to_string(++generation));
  std::filesystem::remove_all(s->dir);
  std::filesystem::create_directories(s->dir);
  s->model = trainServingModel(o);
  s->pool = servePool(o.size);
  const Pipeline& pipeline = *s->model->pipeline;
  std::size_t workingSet = 0;
  for (const GeneratedDesign& d : s->pool) {
    // Uncached reference through Pipeline::extract, not the engine.
    const Library lib = parseSpice(d.spice);
    Reference ref;
    ref.result = pipeline.extract(lib);
    const FlatDesign design = FlatDesign::elaborate(lib);
    ref.align = constraintSetToAlignJson(design, ref.result.detection.set);
    ref.devices = design.devices().size();
    s->referencesOk = s->referencesOk &&
                      alignRoundTrips(ref.align, ref.result.detection.set);
    workingSet += ref.devices * pipeline.config().model.hiddenDim *
                  sizeof(double);
    s->refs.push_back(std::move(ref));
  }
  EngineConfig config;
  // The design cache gets half of the budget, room for 80% of the pool's
  // inference artifacts: the largest, least popular designs (about 5% of
  // requests) come back from disk, so p90 sits among memory hits rather
  // than on the hit/miss boundary.
  config.cacheBudgetBytes = workingSet * 16 / 10;
  config.cachePath = s->dir / "cache";
  config.ledgerPath = s->dir / "ledger.jsonl";
  s->engine = std::make_unique<ExtractionEngine>(pipeline, config);
  for (const GeneratedDesign& d : s->pool) serve(*s->engine, d.spice);
  s->engine->flushDiskWrites();
  return s;
}

const std::pair<const char*, const char*> kEnginePhases[] = {
    {"engine.hash", "core.hash"},
    {"extract.graph_build", "core.graph_build"},
    {"extract.inference", "nn.infer"},
    {"extract.detection", "core.detect"},
};

RunResult serveMix(const Options& o) {
  RunResult r;
  EndToEnd e;
  const std::unique_ptr<ServeSetup> setup = timedSetups(e, makeServeSetup, o);
  const ExtractionEngine& engine = *setup->engine;
  const ZipfStream stream(o.seed, setup->pool.size());
  const EngineCacheStats cacheBefore = engine.cacheStats();
  const util::DiskCacheStats diskBefore = engine.diskCacheStats();

  struct Client {
    explicit Client(Clock::time_point origin) : rec(origin) {}
    std::vector<double> latencyMs;
    double timedSeconds = 0, devices = 0;
    std::uint64_t attempted = 0, failed = 0;
    SpanRecorder rec;
    TraceCounts counts;
    std::string errors;
  };
  const Clock::time_point loopStart = Clock::now();
  std::atomic<std::size_t> next{0};
  auto run = [&](Client& c) {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (!keepGoing(loopStart, i, o)) return;
      const std::size_t k = stream.draw(i);
      const Reference& ref = setup->refs[k];
      ++c.attempted;
      try {
        // With tracing on, odd requests are traced and even ones are not,
        // so the two latencies give the tracing overhead.
        const bool traced = o.trace && i % 2 == 1;
        const std::uint64_t id = i + 1;
        const Clock::time_point start = Clock::now();
        ExtractionResult result;
        std::string align;
        double seconds = 0.0;
        if (traced) {
          SpanRecorder::Scope request(c.rec, "request", id);
          std::optional<Library> lib;
          {
            SpanRecorder::Scope s(c.rec, "netlist.parse", id);
            lib.emplace(parseSpice(setup->pool[k].spice));
          }
          {
            SpanRecorder::Scope s(c.rec, "engine.extract", id);
            result = engine.extract(*lib);
            for (const auto& [phase, layer] : kEnginePhases) {
              const double reported = result.report.phaseSeconds(phase);
              if (reported > 0) c.rec.attribute(layer, reported, s.id(), id);
            }
          }
          align = tracedExport(*lib, result.detection.set, c.rec, id, c.counts);
          seconds = secondsSince(start);
          c.counts.constraints += static_cast<double>(result.detection.set.size());
        } else {
          Served served = serve(engine, setup->pool[k].spice);
          seconds = secondsSince(start);
          result = std::move(served.result);
          align = std::move(served.align);
        }
        c.latencyMs.push_back(1e3 * seconds);
        c.timedSeconds += seconds;
        c.devices += static_cast<double>(ref.devices);
        (traced ? c.counts.tracedMs : c.counts.untracedMs).push_back(1e3 * seconds);
        if (!sameResult(result, ref.result) || align != ref.align) ++c.failed;
      } catch (const std::exception& ex) {
        ++c.failed;
        c.errors += std::string("request failed: ") + ex.what() + "\n";
      }
    }
  };
  std::vector<std::unique_ptr<Client>> clients;
  for (int t = 0; t < 2; ++t) clients.push_back(std::make_unique<Client>(loopStart));
  {
    std::vector<std::jthread> threads;
    for (auto& c : clients) threads.emplace_back(run, std::ref(*c));
  }
  SpanRecorder rec(loopStart);
  TraceCounts counts;
  for (const auto& c : clients) {
    e.latencyMs.insert(e.latencyMs.end(), c->latencyMs.begin(),
                       c->latencyMs.end());
    e.timedSeconds += c->timedSeconds;
    e.devices += c->devices;
    r.attempted += c->attempted;
    r.failed += c->failed;
    r.report += c->errors;
    rec.append(c->rec);
    counts.constraints += c->counts.constraints;
    counts.exportBytes += c->counts.exportBytes;
    counts.tracedMs.insert(counts.tracedMs.end(), c->counts.tracedMs.begin(),
                           c->counts.tracedMs.end());
    counts.untracedMs.insert(counts.untracedMs.end(),
                             c->counts.untracedMs.begin(),
                             c->counts.untracedMs.end());
  }
  r.correct = r.failed == 0 && setup->referencesOk;
  e.quality = evaluate(*setup->model->pipeline, o.size);
  emitEndToEnd(e, o, r);
  if (o.trace) {
    counts.cache = minus(engine.cacheStats(), cacheBefore);
    const util::DiskCacheStats disk = engine.diskCacheStats();
    counts.disk.hits = disk.hits - diskBefore.hits;
    counts.disk.misses = disk.misses - diskBefore.misses;
    emitPerLayer(rec, counts, o, r);
  }
  return r;
}

// ----------------------------------------------------------- eco_chain
//
// One large deep design and a chain of single-cone edits, each request
// an extractDelta against the previous version: the only workload for
// library_diff and subtree-hash reuse, with full-design inference on a
// graph far beyond L2.

struct EcoSetup {
  std::unique_ptr<ServingModel> model;
  std::unique_ptr<EcoChain> chain;
  std::optional<Library> base;
  std::unique_ptr<ExtractionEngine> engine;
};

std::unique_ptr<EcoSetup> makeEcoSetup(const Options& o) {
  auto s = std::make_unique<EcoSetup>();
  s->model = trainServingModel(o);
  s->chain = std::make_unique<EcoChain>(o.seed, o.size);
  s->base.emplace(parseSpice(s->chain->base().spice));
  s->engine = std::make_unique<ExtractionEngine>(*s->model->pipeline);
  s->engine->extract(*s->base);
  return s;
}

RunResult ecoChain(const Options& o) {
  RunResult r;
  EndToEnd e;
  const std::unique_ptr<EcoSetup> setup = timedSetups(e, makeEcoSetup, o);
  const Pipeline& pipeline = *setup->model->pipeline;
  const PipelineConfig& config = pipeline.config();
  const ExtractionEngine& engine = *setup->engine;
  SpanRecorder rec(Clock::now());
  TraceCounts counts;
  const EngineCacheStats cacheBefore = engine.cacheStats();

  // The traced composition keeps its own caches and hash memo, warmed
  // from the base version as the engine's are.
  MapBlockCache blocks;
  MapPairCache pairs;
  std::vector<util::StructuralHash> prevNodeHashes;
  std::optional<Library> prevTraced;
  if (o.trace) {
    SpanRecorder warm(Clock::now());
    TraceCounts ignored;
    const FlatDesign design = FlatDesign::elaborate(*setup->base);
    prevNodeHashes = subtreeHashes(design, config.graph, config.features);
    composeExtraction(pipeline, *setup->base, design, prevNodeHashes, blocks,
                      pairs, warm, 0, ignored);
    prevTraced.emplace(*setup->base);
  }

  Library prev = *setup->base;
  const Clock::time_point loopStart = Clock::now();
  for (std::size_t i = 0; keepGoing(loopStart, i, o); ++i) {
    const std::string spice = setup->chain->next();
    ++r.attempted;
    try {
      const Clock::time_point start = Clock::now();
      Library lib = parseSpice(spice);
      DeltaReport delta;
      const ExtractionResult result = engine.extractDelta(prev, lib, {}, &delta);
      const FlatDesign design = FlatDesign::elaborate(lib);
      const std::string align =
          constraintSetToAlignJson(design, result.detection.set);
      const double seconds = secondsSince(start);
      e.latencyMs.push_back(1e3 * seconds);
      e.timedSeconds += seconds;
      e.devices += static_cast<double>(design.devices().size());
      bool ok = alignRoundTrips(align, result.detection.set);
      // A seeded sample must equal a cold, uncached extraction.
      if (mixSeed(o.seed, i) % 8 == 0) {
        ok = ok && sameResult(result, pipeline.extract(lib));
      }
      counts.dirtyNodes += static_cast<double>(delta.diff.dirtyNodes);
      counts.allNodes +=
          static_cast<double>(delta.diff.dirtyNodes + delta.diff.cleanNodes);
      counts.blockHits += static_cast<double>(delta.reuse.blocks.hits);
      counts.blockLookups += static_cast<double>(delta.reuse.blocks.hits +
                                                 delta.reuse.blocks.misses);
      counts.pairHits += static_cast<double>(delta.reuse.pairs.hits);
      counts.pairLookups += static_cast<double>(delta.reuse.pairs.hits +
                                                delta.reuse.pairs.misses);
      if (o.trace) {
        const std::uint64_t id = i + 1;
        const Clock::time_point tracedStart = Clock::now();
        ExtractionResult composed;
        std::string tracedAlign;
        {
          SpanRecorder::Scope request(rec, "request", id);
          std::optional<Library> next;
          {
            SpanRecorder::Scope s(rec, "netlist.parse", id);
            next.emplace(parseSpice(spice));
          }
          // The engine's delta order: elaborate and hash both versions
          // (the old side's subtree hashes are memoized), then diff.
          std::optional<FlatDesign> oldDesign, newDesign;
          util::StructuralHash oldHash, newHash;
          std::vector<util::StructuralHash> nodeHashes;
          {
            SpanRecorder::Scope s(rec, "netlist.elaborate", id);
            oldDesign.emplace(FlatDesign::elaborate(*prevTraced));
          }
          {
            SpanRecorder::Scope s(rec, "core.hash", id);
            oldHash = structuralHash(*oldDesign, config.graph, config.features);
          }
          {
            SpanRecorder::Scope s(rec, "netlist.elaborate", id);
            newDesign.emplace(FlatDesign::elaborate(*next));
          }
          {
            SpanRecorder::Scope s(rec, "core.hash", id);
            newHash = structuralHash(*newDesign, config.graph, config.features);
            nodeHashes = subtreeHashes(*newDesign, config.graph, config.features);
          }
          {
            SpanRecorder::Scope s(rec, "core.diff", id);
            LibraryDiff diff = diffPrehashed(*newDesign, prevNodeHashes, oldHash,
                                             nodeHashes, newHash);
            diff.masters = diffMasters(*prevTraced, *next);
          }
          oldDesign.reset();
          composed = composeExtraction(pipeline, *next, *newDesign, nodeHashes,
                                       blocks, pairs, rec, id, counts);
          tracedAlign =
              tracedExport(*next, composed.detection.set, rec, id, counts);
          prevTraced = std::move(next);
          prevNodeHashes = std::move(nodeHashes);
        }
        counts.tracedMs.push_back(1e3 * secondsSince(tracedStart));
        counts.untracedMs.push_back(1e3 * seconds);
        ok = ok && sameResult(composed, result) && tracedAlign == align;
      }
      prev = std::move(lib);
      if (!ok) ++r.failed;
    } catch (const std::exception& ex) {
      ++r.failed;
      r.report += std::string("request failed: ") + ex.what() + "\n";
    }
  }
  r.correct = r.failed == 0;
  e.quality = evaluate(*setup->model->pipeline, o.size);
  emitEndToEnd(e, o, r);
  if (o.trace) {
    counts.cache = minus(engine.cacheStats(), cacheBefore);
    emitPerLayer(rec, counts, o, r);
  }
  return r;
}

// --------------------------------------------------------------- train
//
// A stream of Pipeline::train jobs, each on a seeded draw from the
// training corpus (one ADC-class design and three blocks), fixed epochs,
// one thread: the trainer's autograd forward/backward/Adam path, which
// the extraction workloads only touch inside setup.

struct TrainSetup {
  std::unique_ptr<ServingModel> model;
  std::vector<Library> jobLibs;  ///< the run's seeded training corpus
  std::vector<std::size_t> large, small;  ///< jobLibs indices by size
};

/// Job `job` trains on large design job % |large| (so every run sees the
/// same size mix) and three seeded small ones.
std::vector<const Library*> jobCorpus(const TrainSetup& s, std::uint64_t seed,
                                      std::size_t job) {
  SeededRng rng(mixSeed(seed ^ 0x70b5, job));
  std::vector<const Library*> out{&s.jobLibs[s.large[job % s.large.size()]]};
  for (int k = 0; k < 3; ++k) {
    out.push_back(&s.jobLibs[s.small[rng.next() % s.small.size()]]);
  }
  return out;
}

std::unique_ptr<TrainSetup> makeTrainSetup(const Options& o) {
  auto s = std::make_unique<TrainSetup>();
  s->model = trainServingModel(o);
  const std::vector<GeneratedDesign> corpus = trainCorpus(o.seed, o.size);
  s->jobLibs = parseAll(corpus);
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    (corpus[i].devices >= 100 ? s->large : s->small).push_back(i);
  }
  Pipeline warm(pipelineConfig(kJobEpochs));
  warm.train(jobCorpus(*s, o.seed ^ 0x3a7, 0));
  return s;
}

bool sameModel(const GnnModel& a, const GnnModel& b) {
  const std::vector<nn::Tensor> pa = a.parameters();
  const std::vector<nn::Tensor> pb = b.parameters();
  if (pa.size() != pb.size()) return false;
  for (std::size_t i = 0; i < pa.size(); ++i) {
    if (!sameMatrix(pa[i].value(), pb[i].value())) return false;
  }
  return true;
}

bool sameLosses(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

RunResult trainJobs(const Options& o) {
  RunResult r;
  EndToEnd e;
  const std::unique_ptr<TrainSetup> setup = timedSetups(e, makeTrainSetup, o);
  const PipelineConfig config = pipelineConfig(kJobEpochs);
  SpanRecorder rec(Clock::now());
  TraceCounts counts;
  // Training figures come from the timed jobs here, not from setup.
  e.trainGraphPasses = 0;
  e.trainSeconds = 0;
  e.trainLosses.clear();

  const Clock::time_point loopStart = Clock::now();
  for (std::size_t i = 0; keepGoing(loopStart, i, o); ++i) {
    const std::vector<const Library*> corpus = jobCorpus(*setup, o.seed, i);
    ++r.attempted;
    try {
      const Clock::time_point start = Clock::now();
      Pipeline pipeline(config);
      const TrainReport report = pipeline.train(corpus);
      const double seconds = secondsSince(start);
      e.latencyMs.push_back(1e3 * seconds);
      e.timedSeconds += seconds;
      double devices = 0;
      for (const Library* lib : corpus) {
        devices += static_cast<double>(lib->flatDeviceCount());
      }
      e.devices += devices * kJobEpochs;
      e.trainGraphPasses += static_cast<double>(corpus.size() * kJobEpochs);
      bool ok = report.epochLoss.size() == static_cast<std::size_t>(kJobEpochs) &&
                std::all_of(report.epochLoss.begin(), report.epochLoss.end(),
                            [](double l) { return std::isfinite(l); });
      if (i < minRequests(o.size)) e.trainLosses.push_back(report.finalLoss());
      // A seeded sample is retrained and must reproduce bit for bit.
      if (!o.trace && mixSeed(o.seed, i) % 10 == 0) {
        Pipeline again(config);
        ok = ok && sameLosses(again.train(corpus).epochLoss, report.epochLoss) &&
             sameModel(again.model(), pipeline.model());
      }
      if (o.trace) {
        // Pipeline::train composed from per-layer calls: the same model
        // init, graph preparation and training loop, bitwise.
        const std::uint64_t id = i + 1;
        const Clock::time_point tracedStart = Clock::now();
        std::vector<PreparedGraph> prepared;
        std::optional<GnnModel> model;
        TrainStats stats;
        {
          SpanRecorder::Scope request(rec, "request", id);
          {
            SpanRecorder::Scope s(rec, "core.train_prepare", id);
            for (const Library* lib : corpus) {
              std::optional<FlatDesign> design;
              {
                SpanRecorder::Scope e2(rec, "netlist.elaborate", id);
                design.emplace(FlatDesign::elaborate(*lib));
              }
              std::optional<CircuitGraph> graph;
              {
                SpanRecorder::Scope e2(rec, "core.graph_build", id);
                graph.emplace(buildHeteroGraph(*design, config.graph));
              }
              counts.edges += static_cast<double>(graph->graph.numEdges());
              nn::Matrix features;
              {
                SpanRecorder::Scope e2(rec, "core.features", id);
                features = buildFeatureMatrix(*design, config.features);
              }
              SpanRecorder::Scope e2(rec, "core.prepare", id);
              prepared.push_back(prepareGraph(*graph, std::move(features)));
            }
          }
          SpanRecorder::Scope s(rec, "core.train_loop", id);
          Rng rng(config.seed);
          model.emplace(config.model, rng);
          stats = trainUnsupervised(*model, prepared, config.train, rng,
                                    config.threads);
        }
        counts.tracedMs.push_back(1e3 * secondsSince(tracedStart));
        counts.untracedMs.push_back(1e3 * seconds);
        counts.trainEpochs += kJobEpochs;
        ok = ok && sameLosses(stats.epochLoss, report.epochLoss) &&
             sameModel(*model, pipeline.model());
        // Autograd forward against tape-free embed on each graph, outside
        // the request.
        for (const PreparedGraph& g : prepared) {
          {
            SpanRecorder::Scope s(rec, "nn.forward", id);
            (void)model->forward(g);
          }
          SpanRecorder::Scope s(rec, "nn.embed", id);
          (void)model->embed(g);
        }
      }
      if (!ok) ++r.failed;
    } catch (const std::exception& ex) {
      ++r.failed;
      r.report += std::string("request failed: ") + ex.what() + "\n";
    }
  }
  e.trainSeconds = e.timedSeconds;
  r.correct = r.failed == 0;
  e.quality = evaluate(*setup->model->pipeline, o.size);
  emitEndToEnd(e, o, r);
  if (o.trace) emitPerLayer(rec, counts, o, r);
  return r;
}

}  // namespace

RunResult runWorkload(const Options& options) {
  if (options.workload == "cold_mix") return coldMix(options);
  if (options.workload == "serve_mix") return serveMix(options);
  if (options.workload == "eco_chain") return ecoChain(options);
  if (options.workload == "train") return trainJobs(options);
  throw std::invalid_argument("unknown workload '" + options.workload + "'");
}

}  // namespace e2e
