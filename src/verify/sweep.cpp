#include "verify/sweep.hpp"

#include <algorithm>
#include <fstream>
#include <limits>
#include <map>
#include <optional>

#include "util/error.hpp"
#include "util/stopwatch.hpp"
#include "util/sync.hpp"
#include "verify/scheduler.hpp"

namespace fannet::verify {

namespace {

// --- journal line format ----------------------------------------------------
// One JSON object per line (schema in docs/bench-format.md):
//
//   {"sweep":"<name>","fingerprint":"<16 hex>","units":N,"shard_size":K,
//    "done":true}                                                  (header)
//   {"shard":I,"begin":B,"end":E,"bytes":N,"rows":[[..],..],"done":true}
//
// Torn-line detection is structural: a shard line is only trusted when the
// `rows` text spans exactly `bytes` bytes and the line ends with the
// kDoneSuffix marker, so a write cut anywhere mid-line fails to validate
// and the shard re-executes.

constexpr std::string_view kDoneSuffix = ",\"done\":true}";

constexpr char kHexDigits[] = "0123456789abcdef";

std::string fingerprint_hex(std::uint64_t fingerprint) {
  std::string hex(16, '0');
  for (int nibble = 0; nibble < 16; ++nibble) {
    hex[15 - nibble] = kHexDigits[(fingerprint >> (4 * nibble)) & 0xfU];
  }
  return hex;
}

std::string format_rows(const SweepRows& rows) {
  std::string out = "[";
  for (std::size_t r = 0; r < rows.size(); ++r) {
    if (r > 0) out += ',';
    out += '[';
    for (std::size_t c = 0; c < rows[r].size(); ++c) {
      if (c > 0) out += ',';
      out += std::to_string(rows[r][c]);
    }
    out += ']';
  }
  out += ']';
  return out;
}

std::string format_header(std::string_view name, std::uint64_t fingerprint,
                          std::size_t units, std::size_t shard_size) {
  std::string line = "{\"sweep\":\"";
  line += name;
  line += "\",\"fingerprint\":\"";
  line += fingerprint_hex(fingerprint);
  line += "\",\"units\":";
  line += std::to_string(units);
  line += ",\"shard_size\":";
  line += std::to_string(shard_size);
  line += kDoneSuffix;
  return line;
}

std::string format_shard(std::size_t shard, std::size_t begin, std::size_t end,
                         const SweepRows& rows) {
  const std::string rows_text = format_rows(rows);
  std::string line = "{\"shard\":";
  line += std::to_string(shard);
  line += ",\"begin\":";
  line += std::to_string(begin);
  line += ",\"end\":";
  line += std::to_string(end);
  line += ",\"bytes\":";
  line += std::to_string(rows_text.size());
  line += ",\"rows\":";
  line += rows_text;
  line += kDoneSuffix;
  return line;
}

/// Parses a decimal (optionally negative) int64 at `pos`; advances `pos`
/// past the digits.  Fails on overflow rather than wrapping.
bool parse_i64_at(std::string_view text, std::size_t& pos, std::int64_t& out) {
  std::size_t i = pos;
  const bool negative = i < text.size() && text[i] == '-';
  if (negative) ++i;
  if (i >= text.size() || text[i] < '0' || text[i] > '9') return false;
  std::uint64_t magnitude = 0;
  const std::uint64_t limit =
      negative ? 9223372036854775808ULL : 9223372036854775807ULL;
  while (i < text.size() && text[i] >= '0' && text[i] <= '9') {
    const auto digit = static_cast<std::uint64_t>(text[i] - '0');
    if (magnitude > (limit - digit) / 10) return false;
    magnitude = magnitude * 10 + digit;
    ++i;
  }
  out = negative ? (magnitude == limit
                        ? std::numeric_limits<std::int64_t>::min()
                        : -static_cast<std::int64_t>(magnitude))
                 : static_cast<std::int64_t>(magnitude);
  pos = i;
  return true;
}

/// Value position right after `tag`, or nullopt when absent.
std::optional<std::size_t> after_tag(std::string_view line,
                                     std::string_view tag) {
  const std::size_t at = line.find(tag);
  if (at == std::string_view::npos) return std::nullopt;
  return at + tag.size();
}

bool parse_size_field(std::string_view line, std::string_view tag,
                      std::size_t& out) {
  const auto at = after_tag(line, tag);
  if (!at) return false;
  std::size_t pos = *at;
  std::int64_t value = 0;
  if (!parse_i64_at(line, pos, value) || value < 0) return false;
  out = static_cast<std::size_t>(value);
  return true;
}

struct ParsedHeader {
  std::string name;
  std::string fingerprint_hex;
  std::size_t units = 0;
  std::size_t shard_size = 0;
};

std::optional<ParsedHeader> parse_header(std::string_view line) {
  if (!line.ends_with(kDoneSuffix)) return std::nullopt;
  ParsedHeader header;
  const auto name_at = after_tag(line, "\"sweep\":\"");
  if (!name_at) return std::nullopt;
  const std::size_t name_end = line.find('"', *name_at);
  if (name_end == std::string_view::npos) return std::nullopt;
  header.name = std::string(line.substr(*name_at, name_end - *name_at));
  const auto fp_at = after_tag(line, "\"fingerprint\":\"");
  if (!fp_at || *fp_at + 16 > line.size()) return std::nullopt;
  header.fingerprint_hex = std::string(line.substr(*fp_at, 16));
  if (line.size() <= *fp_at + 16 || line[*fp_at + 16] != '"') {
    return std::nullopt;
  }
  if (!parse_size_field(line, "\"units\":", header.units) ||
      !parse_size_field(line, "\"shard_size\":", header.shard_size)) {
    return std::nullopt;
  }
  return header;
}

struct ParsedShard {
  std::size_t shard = 0;
  std::size_t begin = 0;
  std::size_t end = 0;
  SweepRows rows;
};

std::optional<SweepRows> parse_rows(std::string_view text) {
  SweepRows rows;
  std::size_t pos = 0;
  if (pos >= text.size() || text[pos] != '[') return std::nullopt;
  ++pos;
  if (pos < text.size() && text[pos] == ']') {
    return ++pos == text.size() ? std::optional<SweepRows>(std::move(rows))
                                : std::nullopt;
  }
  for (;;) {
    if (pos >= text.size() || text[pos] != '[') return std::nullopt;
    ++pos;
    std::vector<std::int64_t> row;
    if (pos < text.size() && text[pos] == ']') {
      ++pos;
    } else {
      for (;;) {
        std::int64_t value = 0;
        if (!parse_i64_at(text, pos, value)) return std::nullopt;
        row.push_back(value);
        if (pos >= text.size()) return std::nullopt;
        if (text[pos] == ']') {
          ++pos;
          break;
        }
        if (text[pos] != ',') return std::nullopt;
        ++pos;
      }
    }
    rows.push_back(std::move(row));
    if (pos >= text.size()) return std::nullopt;
    if (text[pos] == ']') {
      ++pos;
      break;
    }
    if (text[pos] != ',') return std::nullopt;
    ++pos;
  }
  if (pos != text.size()) return std::nullopt;
  return rows;
}

std::optional<ParsedShard> parse_shard(std::string_view line) {
  if (!line.ends_with(kDoneSuffix)) return std::nullopt;
  ParsedShard shard;
  std::size_t bytes = 0;
  if (!parse_size_field(line, "\"shard\":", shard.shard) ||
      !parse_size_field(line, "\"begin\":", shard.begin) ||
      !parse_size_field(line, "\"end\":", shard.end) ||
      !parse_size_field(line, "\"bytes\":", bytes)) {
    return std::nullopt;
  }
  const auto rows_at = after_tag(line, "\"rows\":");
  if (!rows_at) return std::nullopt;
  // The rows text must span exactly `bytes` bytes and be followed by the
  // done marker alone — any truncation breaks one of the three checks.
  if (*rows_at + bytes + kDoneSuffix.size() != line.size()) {
    return std::nullopt;
  }
  auto rows = parse_rows(line.substr(*rows_at, bytes));
  if (!rows) return std::nullopt;
  shard.rows = std::move(*rows);
  return shard;
}

[[noreturn]] void journal_mismatch(const std::string& path,
                                   std::string_view field,
                                   const std::string& found,
                                   const std::string& expected) {
  throw Error("sweep journal " + path + " does not match this campaign: " +
              std::string(field) + " is " + found + ", expected " + expected +
              " (delete the journal or point --journal elsewhere to start "
              "over)");
}

}  // namespace

void mix_dataset(SweepFingerprint& fp,
                 const la::Matrix<std::int64_t>& inputs,
                 const std::vector<int>& labels) {
  fp.mix_u64(inputs.rows());
  fp.mix_u64(inputs.cols());
  for (std::size_t s = 0; s < inputs.rows(); ++s) {
    for (const std::int64_t v : inputs.row(s)) fp.mix_i64(v);
  }
  fp.mix_u64(labels.size());
  for (const int label : labels) fp.mix_i64(label);
}

SweepRunner::SweepRunner(SweepOptions options) : options_(std::move(options)) {}

SweepProgress SweepRunner::run(SweepCampaign& campaign) const {
  const util::Stopwatch watch;
  const std::size_t units = campaign.units();
  const std::size_t shard_size =
      options_.shard_size != 0 ? options_.shard_size : 1;
  // Ceiling division that cannot wrap: `units + shard_size - 1` would once
  // the shard size is within `units` of SIZE_MAX.  Shard 0 starts at 0, so
  // shard_end below cannot overflow either.
  const std::size_t total_shards =
      units == 0 ? 0 : (units - 1) / shard_size + 1;
  const auto shard_begin = [&](std::size_t shard) { return shard * shard_size; };
  const auto shard_end = [&](std::size_t shard) {
    return std::min(shard_begin(shard) + shard_size, units);
  };

  SweepProgress progress;
  progress.total_shards = total_shards;

  // --- load + validate the journal -----------------------------------------
  std::map<std::size_t, SweepRows> completed;  // shard index -> rows, last wins
  bool header_seen = false;
  const std::string expected_fp_hex = fingerprint_hex(campaign.fingerprint());
  if (!options_.journal_path.empty()) {
    std::ifstream in(options_.journal_path);
    std::string line;
    while (in && std::getline(in, line)) {
      if (line.empty()) continue;
      if (line.find("\"sweep\":") != std::string_view::npos) {
        const auto header = parse_header(line);
        if (!header) {
          ++progress.journal_skipped;  // torn header: harmless, re-written
          continue;
        }
        if (header->name != campaign.name()) {
          journal_mismatch(options_.journal_path, "campaign", header->name,
                           std::string(campaign.name()));
        }
        if (header->fingerprint_hex != expected_fp_hex) {
          journal_mismatch(options_.journal_path, "fingerprint",
                           header->fingerprint_hex, expected_fp_hex);
        }
        if (header->units != units) {
          journal_mismatch(options_.journal_path, "unit count",
                           std::to_string(header->units),
                           std::to_string(units));
        }
        if (header->shard_size != shard_size) {
          journal_mismatch(options_.journal_path, "--shard-size",
                           std::to_string(header->shard_size),
                           std::to_string(shard_size));
        }
        header_seen = true;
        continue;
      }
      const auto shard = parse_shard(line);
      if (!shard || shard->shard >= total_shards ||
          shard->begin != shard_begin(shard->shard) ||
          shard->end != shard_end(shard->shard)) {
        ++progress.journal_skipped;
        continue;
      }
      completed[shard->shard] = std::move(shard->rows);  // last wins
    }
    if (!completed.empty() && !header_seen) {
      throw Error("sweep journal " + options_.journal_path +
                  " has shard entries but no valid header; refusing to trust "
                  "results of unknown origin");
    }
  }
  progress.resumed_shards = completed.size();

  // --- plan this invocation's shards ----------------------------------------
  std::vector<std::size_t> to_run;
  to_run.reserve(total_shards - completed.size());
  for (std::size_t shard = 0; shard < total_shards; ++shard) {
    if (completed.find(shard) == completed.end()) to_run.push_back(shard);
  }
  if (options_.max_shards != 0 && to_run.size() > options_.max_shards) {
    to_run.resize(options_.max_shards);
  }
  progress.pending_shards = total_shards - completed.size() - to_run.size();

  // --- execute + journal -----------------------------------------------------
  std::ofstream append;
  if (!options_.journal_path.empty()) {
    // A crash can leave a torn final line with no trailing newline; an
    // append straight after it would glue the next (valid) record onto the
    // torn bytes and lose that shard's checkpoint on the following load.
    // Start a fresh line first.
    bool needs_newline = false;
    {
      std::ifstream tail(options_.journal_path, std::ios::binary);
      if (tail && tail.seekg(-1, std::ios::end)) {
        char last = '\n';
        needs_newline = tail.get(last) && last != '\n';
      }
    }
    append.open(options_.journal_path, std::ios::app);
    if (!append) {
      throw Error("SweepRunner: cannot open journal " + options_.journal_path +
                  " for append");
    }
    if (needs_newline) append << '\n';
    if (!header_seen) {
      append << format_header(campaign.name(), campaign.fingerprint(), units,
                              shard_size)
             << '\n';
      append.flush();
    }
    if (!append) {
      throw Error("SweepRunner: cannot write journal " +
                  options_.journal_path);
    }
  }

  std::vector<SweepRows> fresh(to_run.size());
  util::Mutex journal_mutex;
  const Scheduler scheduler({.threads = options_.threads});
  scheduler.parallel_for(to_run.size(), [&](std::size_t i) {
    const std::size_t shard = to_run[i];
    fresh[i] = campaign.run_units(shard_begin(shard), shard_end(shard));
    if (append.is_open()) {
      // One locked append+flush per shard: a crash loses at most the shard
      // in flight, and its torn line is discarded on the next load.  A
      // failed write (disk full, I/O error) is a hard error — silently
      // losing durability would defeat the journal's purpose.
      const util::MutexLock lock(journal_mutex);
      append << format_shard(shard, shard_begin(shard), shard_end(shard),
                             fresh[i])
             << '\n';
      append.flush();
      if (!append) {
        throw Error("SweepRunner: checkpoint write to " +
                    options_.journal_path +
                    " failed (disk full?); shard results are no longer "
                    "durable");
      }
    }
  });
  progress.executed_shards = to_run.size();
  for (std::size_t i = 0; i < to_run.size(); ++i) {
    progress.units_executed += shard_end(to_run[i]) - shard_begin(to_run[i]);
    completed[to_run[i]] = std::move(fresh[i]);
  }

  // --- aggregate -------------------------------------------------------------
  // std::map iterates in ascending shard order, so the fold is identical no
  // matter which shards came from the journal and which just ran.
  for (const auto& [shard, rows] : completed) {
    campaign.absorb(shard_begin(shard), shard_end(shard), rows);
  }
  progress.wall_ms = watch.millis();
  return progress;
}

}  // namespace fannet::verify
