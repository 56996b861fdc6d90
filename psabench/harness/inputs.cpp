#include "inputs.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <random>
#include <sstream>
#include <string_view>

#include "corpus/corpus.hpp"
#include "runner.hpp"
#include "testing/program_gen.hpp"

namespace psabench {

namespace {

// Clean programs under ~2 s cold at L1 (tree_mirror, sparse_lu and
// barnes_hut are left to corpus_cold). Hits visit them in this order, which
// keeps the four large entries (em3d_like, sparse_matmat, binary_tree,
// sparse_matvec) apart, and the two prewarm requests, even and odd
// positions, take about the same time.
constexpr std::array<std::string_view, 15> kWarmNames = {
    "em3d_like",     "sll",          "nary_tree",    "sparse_matmat",
    "list_reverse",  "dll",          "binary_tree",  "queue",
    "dll_delete",    "sparse_matvec", "list_merge",  "two_lists",
    "visit_marks",   "list_pipeline", "barnes_hut_small"};
// The small warm units, cheap enough to edit.
constexpr std::array<std::string_view, 8> kEditableNames = {
    "sll",        "dll",       "list_reverse", "queue",
    "dll_delete", "list_merge", "two_lists",   "visit_marks"};

BenchUnit make_unit(std::string name, std::string_view source, UnitKind kind) {
  BenchUnit u;
  u.unit.name = std::move(name);
  u.unit.source = std::string(source);
  u.kind = kind;
  return u;
}

bool frontend_accepts(const std::string& source) {
  try {
    (void)prepare_unit(source, "main", true);
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  // splitmix64 over the pair.
  std::uint64_t z = a * 0x9e3779b97f4a7c15ull + b + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::vector<BenchUnit> corpus_cold_units() {
  std::vector<BenchUnit> units;
  for (const auto& p : psa::corpus::all_programs()) {
    units.push_back(make_unit(std::string(p.name), p.source, UnitKind::kClean));
  }
  for (const auto& p : psa::corpus::buggy_programs()) {
    units.push_back(make_unit(std::string(p.name), p.source, UnitKind::kBuggy));
  }
  for (const auto& p : psa::corpus::dirty_programs()) {
    units.push_back(make_unit(std::string(p.name), p.source, UnitKind::kDirty));
  }
  return units;
}

std::vector<BenchUnit> generated_units(std::uint64_t seed, std::size_t count,
                                       std::string_view prefix) {
  std::vector<BenchUnit> units;
  units.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto program_seed = static_cast<unsigned>(mix(seed, i));
    units.push_back(make_unit(std::string(prefix) + std::to_string(i),
                              psa::testing::generate_program(program_seed),
                              UnitKind::kGenerated));
  }
  return units;
}

std::vector<BenchUnit> warm_units() {
  std::vector<BenchUnit> units;
  for (const std::string_view name : kWarmNames) {
    const auto* p = psa::corpus::find_program(name);
    units.push_back(make_unit(std::string(name), p->source, UnitKind::kClean));
  }
  return units;
}

std::vector<BenchUnit> corpus_edits(std::uint64_t seed) {
  std::vector<std::vector<BenchUnit>> by_unit;
  std::mt19937_64 rng(mix(seed, 0xed17));
  for (const std::string_view name : kEditableNames) {
    std::vector<BenchUnit>& edits = by_unit.emplace_back();
    const std::string source(psa::corpus::find_program(name)->source);
    std::vector<std::string> lines;
    std::istringstream in(source);
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    bool in_main = false;
    for (std::size_t at = 0; at < lines.size(); ++at) {
      const std::string& line = lines[at];
      if (line.find("main(") != std::string::npos) in_main = true;
      if (!in_main || line.empty() || line.back() != ';') continue;
      const auto first = line.find_first_not_of(' ');
      const std::string_view text = std::string_view(line).substr(first);
      if (text.starts_with("struct ") || text.starts_with("int ")) continue;
      std::string edited;
      for (std::size_t k = 0; k < lines.size(); ++k) {
        edited += lines[k];
        edited += '\n';
        if (k == at) edited += std::string(first, ' ') + "i = 0;\n";
      }
      if (!frontend_accepts(edited)) continue;
      edits.push_back(make_unit(std::string(name) + "_edit" +
                                    std::to_string(at + 1),
                                edited, UnitKind::kEdited));
    }
    std::shuffle(edits.begin(), edits.end(), rng);
  }
  // Round-robin over the units keeps the cost mix of the first k edits the
  // same for every seed; the seed picks which line of each unit is edited.
  std::vector<BenchUnit> out;
  for (std::size_t round = 0;; ++round) {
    bool any = false;
    for (const auto& edits : by_unit) {
      if (round < edits.size()) {
        out.push_back(edits[round]);
        any = true;
      }
    }
    if (!any) return out;
  }
}

std::vector<Request> request_schedule(std::uint64_t seed, double rate,
                                      double seconds) {
  const std::vector<BenchUnit> warm = warm_units();
  const std::vector<BenchUnit> corpus_edit_pool = corpus_edits(seed);
  const auto total = static_cast<std::size_t>(std::llround(rate * seconds));
  std::vector<Request> schedule;
  schedule.reserve(total);
  // The arrival pattern is fixed: every block of ten requests holds eight
  // hits, one new generated program and one corpus edit, and hits cycle
  // through the warm set. The seed picks the generated programs and the
  // edited lines, not where the expensive requests fall, so seeds differ in
  // inputs but not in how often heavy requests overlap.
  constexpr std::array<RequestKind, 10> kBlock = {
      RequestKind::kHit,           RequestKind::kHit, RequestKind::kHit,
      RequestKind::kHit,           RequestKind::kEditGenerated,
      RequestKind::kHit,           RequestKind::kHit, RequestKind::kHit,
      RequestKind::kHit,           RequestKind::kEditCorpus};
  std::size_t generated = 0;
  std::size_t corpus_edited = 0;
  std::size_t hits = 0;
  for (std::size_t i = 0; i < total; ++i) {
    Request r;
    r.due_ns = static_cast<std::int64_t>(static_cast<double>(i) * 1e9 / rate);
    r.kind = kBlock[i % kBlock.size()];
    if (r.kind == RequestKind::kHit) {
      r.unit = warm[hits++ % warm.size()];
    } else if (r.kind == RequestKind::kEditGenerated ||
               corpus_edited == corpus_edit_pool.size()) {
      r.kind = RequestKind::kEditGenerated;
      r.unit = generated_units(mix(seed, 0xed17 + generated), 1,
                               "edit_gen")[0];
      r.unit.unit.name += "_" + std::to_string(generated++);
    } else {
      r.kind = RequestKind::kEditCorpus;
      r.unit = corpus_edit_pool[corpus_edited++];
    }
    r.unit.unit.name = "r" + std::to_string(i) + "_" + r.unit.unit.name;
    schedule.push_back(std::move(r));
  }
  return schedule;
}

}  // namespace psabench
