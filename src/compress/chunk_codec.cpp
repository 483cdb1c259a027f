#include "compress/chunk_codec.hpp"

#include <cstdint>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "io/binary_format.hpp"
#include "io/delta_codec.hpp"
#include "io/varint.hpp"

namespace race2d {

namespace {

std::size_t varint_len(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

}  // namespace

std::string compress_chunk_payload(const TraceEvent* events, std::size_t n) {
  // 1. Delta-encode every event exactly as the v1 writer would, remembering
  //    each event's byte span. Byte equality of spans is the run relation:
  //    equal delta strings replay to the same register evolution, so a
  //    periodic stretch of them is a template repeating verbatim.
  std::string enc;
  std::vector<std::uint32_t> offs;
  offs.reserve(n + 1);
  EventDeltaState regs;
  for (std::size_t i = 0; i < n; ++i) {
    offs.push_back(static_cast<std::uint32_t>(enc.size()));
    append_event_delta(enc, events[i], regs);
  }
  offs.push_back(static_cast<std::uint32_t>(enc.size()));
  const auto span = [&](std::size_t i) {
    return std::string_view(enc.data() + offs[i], offs[i + 1] - offs[i]);
  };

  std::string payload;
  append_varint(payload, n);

  std::string literal;
  std::uint64_t literal_count = 0;
  const auto flush_literal = [&] {
    if (literal_count == 0) return;
    payload.push_back(static_cast<char>(kItemLiteral));
    append_varint(payload, literal_count);
    payload += literal;
    literal.clear();
    literal_count = 0;
  };

  std::unordered_map<std::string, std::uint32_t> dict;

  // 2. Greedy left-to-right: at each position take the longest periodic run
  //    (smallest period on ties — it compresses better and keys the
  //    dictionary on the primitive motif), else one literal event.
  std::size_t i = 0;
  while (i < n) {
    std::size_t best_cover = 0;
    std::size_t best_p = 0;
    const std::size_t max_p = std::min(kMaxRunPeriod, (n - i) / 2);
    for (std::size_t p = 1; p <= max_p; ++p) {
      std::size_t j = i + p;
      while (j < n && span(j) == span(j - p)) ++j;
      const std::size_t cover = ((j - i) / p) * p;  // whole periods only
      if (cover >= 2 * p && cover > best_cover) {
        best_cover = cover;
        best_p = p;
      }
    }
    if (best_p != 0) {
      const std::uint64_t reps = best_cover / best_p;
      const std::string tmpl(enc, offs[i], offs[i + best_p] - offs[i]);
      const std::size_t as_literal = static_cast<std::size_t>(reps) *
                                     tmpl.size();
      const auto hit = dict.find(tmpl);
      if (hit == dict.end() && dict.size() == kMaxChunkTemplates) {
        // The dictionary is full, so no new template can be defined: the
        // run goes out as literal events, all of it at once, so that a
        // long run is not rescanned from every one of its positions.
        for (const std::size_t end = i + best_cover; i < end; ++i) {
          literal += span(i);
          ++literal_count;
        }
        continue;
      }
      std::size_t as_run;
      if (hit != dict.end()) {
        as_run = 1 + varint_len(hit->second) + varint_len(reps);
      } else {
        as_run = 1 + varint_len(reps) + varint_len(best_p) + tmpl.size();
      }
      if (as_run < as_literal) {
        flush_literal();
        if (hit != dict.end()) {
          payload.push_back(static_cast<char>(kItemDictRun));
          append_varint(payload, hit->second);
          append_varint(payload, reps);
        } else {
          payload.push_back(static_cast<char>(kItemDefineRun));
          append_varint(payload, reps);
          append_varint(payload, best_p);
          payload += tmpl;
          dict.emplace(tmpl, static_cast<std::uint32_t>(dict.size()));
        }
        i += best_cover;
        continue;
      }
    }
    literal += span(i);
    ++literal_count;
    ++i;
  }
  flush_literal();
  return payload;
}

}  // namespace race2d
