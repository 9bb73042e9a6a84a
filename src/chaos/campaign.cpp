#include "chaos/campaign.hpp"

#include <cctype>
#include <fstream>
#include <sstream>

#include "util/rng.hpp"

namespace geofm::chaos {

namespace {

// The draw menu. Codes are stable: adding a kind appends, never
// renumbers — a campaign seed is a replay artifact and must keep meaning
// what it meant.
enum FaultCode : int {
  kCommKill = 0,
  kCommStall = 1,
  kCommSlowRank = 2,
  kIoTornWrite = 3,
  kIoFailWrite = 4,
  kIoSlowWrite = 5,
  kIoSlowUpload = 6,
  kIoTornUpload = 7,
  kLoaderKill = 8,
  kLoaderSlow = 9,
  kLoaderPoison = 10,
};

const char* kind_label(comm::FaultEvent::Kind kind) {
  using Kind = comm::FaultEvent::Kind;
  switch (kind) {
    case Kind::kKill: return "kill";
    case Kind::kStall: return "stall";
    case Kind::kSlowRank: return "slow_rank";
    case Kind::kCorrupt: return "corrupt";
    case Kind::kCallback: return "callback";
    case Kind::kIoFail: return "io_fail";
    case Kind::kIoTorn: return "io_torn";
    case Kind::kIoSlow: return "io_slow";
    case Kind::kIoUnreadable: return "io_unreadable";
    case Kind::kLoaderWorkerKill: return "loader_worker_kill";
    case Kind::kLoaderSlowRender: return "loader_slow_render";
    case Kind::kLoaderPoison: return "loader_poison";
  }
  return "?";
}

}  // namespace

std::string Campaign::describe() const {
  std::ostringstream out;
  out << "campaign seed=" << seed << " events=" << plan.events.size()
      << " overload_bursts=" << overload_steps.size() << "\n";
  for (const auto& e : plan.events) {
    out << "  " << kind_label(e.kind) << " rank=" << e.rank;
    if (e.step >= 0) out << " step=" << e.step;
    if (e.after_posts >= 0) out << " after_posts=" << e.after_posts;
    if (e.after_io >= 0) out << " after_io=" << e.after_io;
    if (e.seconds > 0) out << " seconds=" << e.seconds;
    out << "\n";
  }
  for (i64 s : overload_steps) {
    out << "  overload step=" << s << " requests=" << kOverloadRequests
        << "\n";
  }
  return out.str();
}

Campaign generate_campaign(const CampaignConfig& cfg) {
  GEOFM_CHECK(cfg.world >= 1, "campaign needs a world");
  GEOFM_CHECK(cfg.steps >= 2, "campaign needs at least 2 steps of horizon");
  GEOFM_CHECK(cfg.max_faults_per_burst >= 1, "bad faults-per-burst range");

  std::vector<int> menu;
  if (cfg.comm_faults) {
    menu.insert(menu.end(), {kCommKill, kCommStall, kCommSlowRank});
  }
  if (cfg.storage_faults) {
    menu.insert(menu.end(), {kIoTornWrite, kIoFailWrite, kIoSlowWrite,
                             kIoSlowUpload, kIoTornUpload});
  }
  menu.insert(menu.end(), {kLoaderKill, kLoaderSlow, kLoaderPoison});

  Campaign camp;
  camp.seed = cfg.seed;
  camp.plan.seed = cfg.seed;
  const Rng root = Rng(cfg.seed).split(hash_name("chaos_campaign"));
  int kills_left = cfg.max_kills;

  for (int b = 0; b < cfg.bursts; ++b) {
    // One burst = one (step interval, victim rank) window; every fault
    // drawn for the burst lands inside it. That correlation is the
    // point: "the rank died *while* its checkpoint write tore".
    Rng burst = root.split(static_cast<u64>(b) + 1);
    const i64 step = 1 + burst.uniform_int(cfg.steps - 1);
    const int victim = static_cast<int>(burst.uniform_int(cfg.world));
    const int n_faults =
        1 + static_cast<int>(burst.uniform_int(cfg.max_faults_per_burst));
    for (int f = 0; f < n_faults; ++f) {
      Rng draw = burst.split(100 + static_cast<u64>(f));
      int code = menu[static_cast<size_t>(
          draw.uniform_int(static_cast<i64>(menu.size())))];
      if (code == kCommKill && kills_left <= 0) code = kCommStall;
      using FE = comm::FaultEvent;
      switch (code) {
        case kCommKill:
          --kills_left;
          camp.plan.events.push_back(FE::kill_at_step(victim, step));
          break;
        case kCommStall:
          camp.plan.events.push_back(
              FE::stall_at_step(victim, step, draw.uniform(0.005, 0.02)));
          break;
        case kCommSlowRank:
          camp.plan.events.push_back(
              FE::slow_rank(victim, draw.uniform_int(16),
                            draw.uniform(0.002, 0.008), 2));
          break;
        case kIoTornWrite:
          camp.plan.events.push_back(
              FE::io_torn_write(victim, draw.uniform_int(cfg.io_ops)));
          break;
        case kIoFailWrite:
          // Fatal unless the run tolerates checkpoint failures — the
          // soak harness sets tolerate_checkpoint_failures.
          camp.plan.events.push_back(
              FE::io_fail_write(victim, draw.uniform_int(cfg.io_ops)));
          break;
        case kIoSlowWrite:
          camp.plan.events.push_back(
              FE::io_slow_write(victim, draw.uniform_int(cfg.io_ops),
                                draw.uniform(0.002, 0.01)));
          break;
        case kIoSlowUpload:
          camp.plan.events.push_back(FE::io_slow_upload(
              draw.uniform_int(cfg.io_ops), draw.uniform(0.002, 0.01)));
          break;
        case kIoTornUpload:
          camp.plan.events.push_back(
              FE::io_torn_upload(draw.uniform_int(cfg.io_ops)));
          break;
        case kLoaderKill:
          // One global batch per step: the burst's step doubles as the
          // loader ordinal, so the data-path fault is concurrent with
          // the burst's comm/storage faults.
          camp.plan.events.push_back(FE::loader_worker_kill(victim, step));
          break;
        case kLoaderSlow:
          camp.plan.events.push_back(FE::loader_slow_render(
              victim, step, draw.uniform(0.02, 0.06), 1));
          break;
        case kLoaderPoison:
          camp.plan.events.push_back(FE::loader_poison(victim, step));
          break;
        default:
          break;
      }
    }
    if (cfg.serve_overload && burst.uniform_int(2) == 0) {
      camp.overload_steps.push_back(step);
    }
  }
  return camp;
}

namespace {

// Unescapes one JSON string starting at text[pos] == '"'. Handles the
// escapes the flight recorder and fault trace emit: \" \\ \/ \n \t and
// \u00XX control characters.
std::string read_json_string(const std::string& text, size_t pos) {
  GEOFM_CHECK(pos < text.size() && text[pos] == '"',
              "postmortem: expected a JSON string");
  ++pos;
  std::string out;
  while (pos < text.size()) {
    const char c = text[pos++];
    if (c == '"') return out;
    if (c != '\\') {
      out.push_back(c);
      continue;
    }
    GEOFM_CHECK(pos < text.size(), "postmortem: unterminated escape");
    const char esc = text[pos++];
    switch (esc) {
      case '"':
      case '\\':
      case '/':
        out.push_back(esc);
        break;
      case 'n':
        out.push_back('\n');
        break;
      case 't':
        out.push_back('\t');
        break;
      case 'u': {
        GEOFM_CHECK(pos + 4 <= text.size(),
                    "postmortem: truncated \\u escape");
        unsigned v = 0;
        for (int i = 0; i < 4; ++i) {
          const char h = text[pos++];
          v <<= 4;
          if (h >= '0' && h <= '9') v |= static_cast<unsigned>(h - '0');
          else if (h >= 'a' && h <= 'f') v |= static_cast<unsigned>(h - 'a' + 10);
          else if (h >= 'A' && h <= 'F') v |= static_cast<unsigned>(h - 'A' + 10);
          else throw Error("postmortem: bad \\u escape");
        }
        GEOFM_CHECK(v < 0x80, "postmortem: non-ASCII \\u escape unsupported");
        out.push_back(static_cast<char>(v));
        break;
      }
      default:
        throw Error("postmortem: unsupported escape in string");
    }
  }
  throw Error("postmortem: unterminated string");
}

}  // namespace

Campaign plan_from_postmortem(const std::string& text) {
  std::string plan_json;
  const size_t key = text.find("\"fired_plan\"");
  if (key != std::string::npos) {
    // A flight-recorder bundle: the note's value is the escaped
    // plan_to_json of the realized schedule.
    size_t pos = text.find(':', key + 12);
    GEOFM_CHECK(pos != std::string::npos,
                "postmortem: malformed fired_plan note");
    ++pos;
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
    plan_json = read_json_string(text, pos);
  } else {
    plan_json = text;  // a bare plan_to_json trace
  }
  Campaign camp;
  camp.plan = comm::plan_from_json(plan_json);
  camp.seed = camp.plan.seed;
  return camp;
}

Campaign plan_from_postmortem_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  GEOFM_CHECK(in.good(), "postmortem: cannot open " << path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return plan_from_postmortem(buf.str());
}

}  // namespace geofm::chaos
