#include "sim/churn_engine.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <set>

#include "util/hash.h"
#include "util/rng.h"

namespace contra::sim {
namespace {

/// Directed ids of every cable, represented by the lower directed id.
std::vector<topology::LinkId> cables_of(const topology::Topology& topo) {
  std::vector<topology::LinkId> cables;
  for (topology::LinkId id = 0; id < topo.num_links(); ++id) {
    if (id < topo.link(id).reverse) cables.push_back(id);
  }
  return cables;
}

std::string link_name(const topology::Topology& topo, topology::LinkId link) {
  const topology::DirectedLink& dl = topo.link(link);
  return topo.name(dl.from) + "-" + topo.name(dl.to);
}

bool gray_is_clear(const GrayParams& g) {
  return g.loss_prob == 0.0 && g.extra_delay_s == 0.0 && g.capacity_factor == 1.0;
}

}  // namespace

uint32_t ChurnEngine::begin_wave(FaultClass cls, Time at, std::string what) {
  const uint32_t index = next_wave_++;
  waves_.push_back(Wave{at, cls, index, std::move(what)});
  return index;
}

uint64_t ChurnEngine::gray_salt(topology::LinkId link, uint32_t wave) const {
  return util::mix64(0x6368757267726179ULL ^ (static_cast<uint64_t>(wave) << 32) ^ link);
}

ChurnEngine& ChurnEngine::flap(topology::LinkId link, Time start, Time half_period,
                               int cycles) {
  begin_wave(FaultClass::kFlap, start,
             "flap " + link_name(*topo_, link) + " x" + std::to_string(cycles));
  for (int i = 0; i < cycles; ++i) {
    push(Event{start + 2 * i * half_period, Op::kFail, link, topology::kInvalidNode, {}});
    push(Event{start + (2 * i + 1) * half_period, Op::kRestore, link,
               topology::kInvalidNode, {}});
  }
  return *this;
}

ChurnEngine& ChurnEngine::srg(const std::vector<topology::LinkId>& links, Time at,
                              Time restore_at) {
  begin_wave(FaultClass::kSrg, at, "srg " + std::to_string(links.size()) + " cables");
  for (topology::LinkId link : links) {
    push(Event{at, Op::kFail, link, topology::kInvalidNode, {}});
    push(Event{restore_at, Op::kRestore, link, topology::kInvalidNode, {}});
  }
  return *this;
}

ChurnEngine& ChurnEngine::srg_switch(topology::NodeId node, Time at, Time restore_at) {
  begin_wave(FaultClass::kSrg, at, "srg switch " + topo_->name(node));
  for (topology::LinkId link : topo_->out_links(node)) {
    push(Event{at, Op::kFail, link, topology::kInvalidNode, {}});
    push(Event{restore_at, Op::kRestore, link, topology::kInvalidNode, {}});
  }
  return *this;
}

ChurnEngine& ChurnEngine::gray(topology::LinkId link, Time at, Time clear_at,
                               GrayParams params) {
  char what[96];
  std::snprintf(what, sizeof(what), "gray %s loss=%.3f", link_name(*topo_, link).c_str(),
                params.loss_prob);
  const uint32_t wave = begin_wave(FaultClass::kGray, at, what);
  if (params.salt == 0) params.salt = gray_salt(link, wave);
  push(Event{at, Op::kGraySet, link, topology::kInvalidNode, params});
  push(Event{clear_at, Op::kGraySet, link, topology::kInvalidNode, GrayParams{}});
  return *this;
}

ChurnEngine& ChurnEngine::drift(topology::LinkId link, Time start, Time half_period,
                                int cycles, double amplitude_s) {
  begin_wave(FaultClass::kDrift, start,
             "drift " + link_name(*topo_, link) + " x" + std::to_string(cycles));
  GrayParams high;
  high.extra_delay_s = amplitude_s;
  high.salt = gray_salt(link, next_wave_ - 1);
  for (int i = 0; i < cycles; ++i) {
    push(Event{start + 2 * i * half_period, Op::kGraySet, link, topology::kInvalidNode,
               high});
    push(Event{start + (2 * i + 1) * half_period, Op::kGraySet, link,
               topology::kInvalidNode, GrayParams{}});
  }
  return *this;
}

ChurnEngine& ChurnEngine::drain(topology::NodeId node, Time at, Time restore_at,
                                double capacity_factor) {
  const uint32_t wave = begin_wave(FaultClass::kDrain, at, "drain " + topo_->name(node));
  for (topology::LinkId link : topo_->out_links(node)) {
    GrayParams derate;
    derate.capacity_factor = capacity_factor;
    derate.salt = gray_salt(link, wave);
    push(Event{at, Op::kGraySet, link, topology::kInvalidNode, derate});
    push(Event{restore_at, Op::kGraySet, link, topology::kInvalidNode, GrayParams{}});
  }
  return *this;
}

ChurnEngine& ChurnEngine::restart(topology::NodeId node, Time at) {
  begin_wave(FaultClass::kRestart, at, "restart " + topo_->name(node));
  push(Event{at, Op::kRestart, topology::kInvalidLink, node, {}});
  return *this;
}

ChurnEngine& ChurnEngine::generate(uint64_t seed, Time start, Time horizon,
                                   uint32_t waves) {
  const std::vector<topology::LinkId> cables = cables_of(*topo_);
  if (cables.empty() || waves == 0 || horizon <= start) return *this;
  util::Rng rng(util::mix64(seed ^ 0x636875726e67656eULL));
  const Time slot = (horizon - start) / waves;
  for (uint32_t w = 0; w < waves; ++w) {
    const Time t0 = start + w * slot;
    // Keep every fault fully healed by 80% of the slot so the schedule ends
    // clean before the measurement horizon.
    const Time active = 0.8 * slot;
    const topology::LinkId cable =
        cables[static_cast<size_t>(rng.uniform_int(0, static_cast<int64_t>(cables.size()) - 1))];
    const topology::NodeId node =
        static_cast<topology::NodeId>(rng.uniform_int(0, topo_->num_nodes() - 1));
    switch (rng.uniform_int(0, 5)) {
      case 0: {  // flap
        const int cycles = static_cast<int>(rng.uniform_int(1, 3));
        flap(cable, t0, active / (2 * cycles), cycles);
        break;
      }
      case 1: {  // correlated: every cable of one switch
        srg_switch(node, t0, t0 + active);
        break;
      }
      case 2: {  // gray
        GrayParams params;
        params.loss_prob = 0.01 + 0.19 * rng.uniform();
        params.extra_delay_s = 200e-6 * rng.uniform();
        params.capacity_factor = 0.5 + 0.5 * rng.uniform();
        gray(cable, t0, t0 + active, params);
        break;
      }
      case 3: {  // drift
        const int cycles = static_cast<int>(rng.uniform_int(1, 3));
        drift(cable, t0, active / (2 * cycles), cycles, 50e-6 + 450e-6 * rng.uniform());
        break;
      }
      case 4:  // drain
        drain(node, t0, t0 + active, 0.05 + 0.25 * rng.uniform());
        break;
      default:  // restart
        restart(node, t0);
        break;
    }
  }
  return *this;
}

Time ChurnEngine::last_event_time() const {
  Time last = 0.0;
  for (const Event& ev : events_) last = std::max(last, ev.at);
  for (const Wave& wave : waves_) last = std::max(last, wave.at);
  return last;
}

void ChurnEngine::replay_through(Time t, std::set<topology::LinkId>* down,
                                 std::set<topology::LinkId>* grayed) const {
  std::vector<size_t> order(events_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [this](size_t a, size_t b) {
    return events_[a].at < events_[b].at;
  });
  for (size_t i : order) {
    const Event& ev = events_[i];
    if (ev.at > t) break;
    switch (ev.op) {
      case Op::kFail:
        down->insert(ev.link);
        break;
      case Op::kRestore:
        down->erase(ev.link);
        break;
      case Op::kGraySet:
        if (gray_is_clear(ev.gray)) {
          grayed->erase(ev.link);
        } else {
          grayed->insert(ev.link);
        }
        break;
      case Op::kRestart:
        break;
    }
  }
}

bool ChurnEngine::ends_clean() const {
  std::set<topology::LinkId> down, grayed;
  replay_through(std::numeric_limits<Time>::infinity(), &down, &grayed);
  return down.empty() && grayed.empty();
}

std::vector<topology::LinkId> ChurnEngine::cables_down_at(Time t) const {
  std::set<topology::LinkId> down, grayed;
  replay_through(t, &down, &grayed);
  return {down.begin(), down.end()};
}

bool ChurnEngine::has_restarts() const {
  for (const Event& ev : events_) {
    if (ev.op == Op::kRestart) return true;
  }
  return false;
}

std::string ChurnEngine::describe() const {
  std::string out;
  char line[160];
  for (const Wave& wave : waves_) {
    std::snprintf(line, sizeof(line), "wave %u t=%.6fs class=%.*s %s\n", wave.index,
                  wave.at, static_cast<int>(obs::fault_class_name(wave.cls).size()),
                  obs::fault_class_name(wave.cls).data(), wave.what.c_str());
    out += line;
  }
  return out;
}

// Arming schedules both wave markers and primitive events in global time
// order, wave markers first at equal times: the event queue breaks ties by
// insertion order, so the churn_wave trace record always precedes the fault
// records it anchors.
namespace {
struct ArmItem {
  Time at;
  bool is_wave;
  size_t index;
};
}  // namespace

void ChurnEngine::arm(ParallelSimulator& psim) const {
  std::vector<ArmItem> items;
  items.reserve(waves_.size() + events_.size());
  for (size_t i = 0; i < waves_.size(); ++i) items.push_back({waves_[i].at, true, i});
  for (size_t i = 0; i < events_.size(); ++i) items.push_back({events_[i].at, false, i});
  std::stable_sort(items.begin(), items.end(), [](const ArmItem& a, const ArmItem& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.is_wave && !b.is_wave;
  });
  for (const ArmItem& item : items) {
    if (item.is_wave) {
      const Wave& wave = waves_[item.index];
      psim.schedule_churn_wave(wave.at, wave.cls, wave.index);
      continue;
    }
    const Event& ev = events_[item.index];
    switch (ev.op) {
      case Op::kFail:
        psim.schedule_cable_event(ev.at, ev.link, /*down=*/true);
        break;
      case Op::kRestore:
        psim.schedule_cable_event(ev.at, ev.link, /*down=*/false);
        break;
      case Op::kGraySet:
        psim.schedule_gray_event(ev.at, ev.link, ev.gray);
        break;
      case Op::kRestart:
        psim.schedule_restart_event(ev.at, ev.node);
        break;
    }
  }
}

// ---------------------------------------------------------------------------
// JSON-subset parser for --churn-spec. Supports objects, arrays, strings
// (no escapes beyond \" \\ \/ \n \t), numbers, booleans, null — enough for
// the spec schema, with line-precise errors. No external dependencies.
// ---------------------------------------------------------------------------
namespace {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject } kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  JsonParser(const std::string& text, std::string* error) : text_(text), error_(error) {}

  bool parse(JsonValue* out) {
    skip_ws();
    if (!parse_value(out)) return false;
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing characters after document");
    return true;
  }

 private:
  bool fail(const std::string& message) {
    size_t line = 1;
    for (size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') ++line;
    }
    *error_ = "churn-spec parse error (line " + std::to_string(line) + "): " + message;
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  bool parse_value(JsonValue* out) {
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return parse_object(out);
    if (c == '[') return parse_array(out);
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return parse_string(&out->str);
    }
    if (c == 't' || c == 'f') return parse_keyword(out);
    if (c == 'n') return parse_keyword(out);
    return parse_number(out);
  }

  bool parse_object(JsonValue* out) {
    out->kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (pos_ >= text_.size() || text_[pos_] != '"') return fail("expected object key");
      if (!parse_string(&key)) return false;
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':') return fail("expected ':'");
      ++pos_;
      skip_ws();
      JsonValue value;
      if (!parse_value(&value)) return false;
      out->object.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}' in object");
    }
  }

  bool parse_array(JsonValue* out) {
    out->kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      JsonValue value;
      if (!parse_value(&value)) return false;
      out->array.push_back(std::move(value));
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']' in array");
    }
  }

  bool parse_string(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'n': out->push_back('\n'); break;
          case 't': out->push_back('\t'); break;
          default: return fail("unsupported escape sequence");
        }
        continue;
      }
      out->push_back(c);
    }
    return fail("unterminated string");
  }

  bool parse_keyword(JsonValue* out) {
    auto match = [this](const char* kw) {
      const size_t n = std::strlen(kw);
      if (text_.compare(pos_, n, kw) != 0) return false;
      pos_ += n;
      return true;
    };
    if (match("true")) {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = true;
      return true;
    }
    if (match("false")) {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = false;
      return true;
    }
    if (match("null")) {
      out->kind = JsonValue::Kind::kNull;
      return true;
    }
    return fail("unknown keyword");
  }

  bool parse_number(JsonValue* out) {
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return fail("expected a value");
    char* end = nullptr;
    out->number = std::strtod(text_.c_str() + start, &end);
    if (end != text_.c_str() + pos_) return fail("malformed number");
    out->kind = JsonValue::Kind::kNumber;
    return true;
  }

  const std::string& text_;
  std::string* error_;
  size_t pos_ = 0;
};

/// Numeric field in milliseconds → seconds; false + error when missing.
bool req_ms(const JsonValue& obj, const std::string& key, std::string* error, Time* out) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || v->kind != JsonValue::Kind::kNumber) {
    *error = "churn-spec: event missing numeric field \"" + key + "\"";
    return false;
  }
  *out = v->number * 1e-3;
  return true;
}

double opt_num(const JsonValue& obj, const std::string& key, double fallback) {
  const JsonValue* v = obj.find(key);
  return (v != nullptr && v->kind == JsonValue::Kind::kNumber) ? v->number : fallback;
}

bool resolve_node(const topology::Topology& topo, const JsonValue& obj, std::string* error,
                  topology::NodeId* out) {
  const JsonValue* v = obj.find("node");
  if (v == nullptr || v->kind != JsonValue::Kind::kString) {
    *error = "churn-spec: event missing string field \"node\"";
    return false;
  }
  *out = topo.find(v->str);
  if (*out == topology::kInvalidNode) {
    *error = "churn-spec: unknown node \"" + v->str + "\"";
    return false;
  }
  return true;
}

bool resolve_link_name(const topology::Topology& topo, const std::string& name,
                       std::string* error, topology::LinkId* out) {
  const size_t dash = name.find('-');
  if (dash == std::string::npos) {
    *error = "churn-spec: link \"" + name + "\" must be \"from-to\"";
    return false;
  }
  const topology::NodeId a = topo.find(name.substr(0, dash));
  const topology::NodeId b = topo.find(name.substr(dash + 1));
  if (a == topology::kInvalidNode || b == topology::kInvalidNode ||
      topo.link_between(a, b) == topology::kInvalidLink) {
    *error = "churn-spec: no cable \"" + name + "\" in the topology";
    return false;
  }
  *out = topo.link_between(a, b);
  return true;
}

bool resolve_link(const topology::Topology& topo, const JsonValue& obj, std::string* error,
                  topology::LinkId* out) {
  const JsonValue* v = obj.find("link");
  if (v == nullptr || v->kind != JsonValue::Kind::kString) {
    *error = "churn-spec: event missing string field \"link\"";
    return false;
  }
  return resolve_link_name(topo, v->str, error, out);
}

}  // namespace

bool ChurnEngine::load_json(const std::string& text, std::string* error) {
  JsonValue root;
  if (!JsonParser(text, error).parse(&root)) return false;
  if (root.kind != JsonValue::Kind::kObject) {
    *error = "churn-spec: top level must be an object";
    return false;
  }
  if (const JsonValue* events = root.find("events"); events != nullptr) {
    if (events->kind != JsonValue::Kind::kArray) {
      *error = "churn-spec: \"events\" must be an array";
      return false;
    }
    for (const JsonValue& ev : events->array) {
      if (ev.kind != JsonValue::Kind::kObject) {
        *error = "churn-spec: every event must be an object";
        return false;
      }
      const JsonValue* type = ev.find("type");
      if (type == nullptr || type->kind != JsonValue::Kind::kString) {
        *error = "churn-spec: event missing string field \"type\"";
        return false;
      }
      const std::string& kind = type->str;
      if (kind == "flap") {
        topology::LinkId link;
        Time start, half;
        if (!resolve_link(*topo_, ev, error, &link) ||
            !req_ms(ev, "start_ms", error, &start) ||
            !req_ms(ev, "half_period_ms", error, &half)) {
          return false;
        }
        flap(link, start, half, static_cast<int>(opt_num(ev, "cycles", 1)));
      } else if (kind == "srg") {
        const JsonValue* links = ev.find("links");
        if (links == nullptr || links->kind != JsonValue::Kind::kArray) {
          *error = "churn-spec: srg event needs a \"links\" array";
          return false;
        }
        std::vector<topology::LinkId> ids;
        for (const JsonValue& name : links->array) {
          topology::LinkId id;
          if (name.kind != JsonValue::Kind::kString ||
              !resolve_link_name(*topo_, name.str, error, &id)) {
            if (error->empty()) *error = "churn-spec: srg links must be strings";
            return false;
          }
          ids.push_back(id);
        }
        Time at, restore;
        if (!req_ms(ev, "at_ms", error, &at) || !req_ms(ev, "restore_ms", error, &restore)) {
          return false;
        }
        srg(ids, at, restore);
      } else if (kind == "srg_switch") {
        topology::NodeId node;
        Time at, restore;
        if (!resolve_node(*topo_, ev, error, &node) || !req_ms(ev, "at_ms", error, &at) ||
            !req_ms(ev, "restore_ms", error, &restore)) {
          return false;
        }
        srg_switch(node, at, restore);
      } else if (kind == "gray") {
        topology::LinkId link;
        Time at, clear;
        if (!resolve_link(*topo_, ev, error, &link) || !req_ms(ev, "at_ms", error, &at) ||
            !req_ms(ev, "clear_ms", error, &clear)) {
          return false;
        }
        GrayParams params;
        params.loss_prob = opt_num(ev, "loss", 0.0);
        params.extra_delay_s = opt_num(ev, "extra_delay_us", 0.0) * 1e-6;
        params.capacity_factor = opt_num(ev, "capacity_factor", 1.0);
        gray(link, at, clear, params);
      } else if (kind == "drift") {
        topology::LinkId link;
        Time start, half;
        if (!resolve_link(*topo_, ev, error, &link) ||
            !req_ms(ev, "start_ms", error, &start) ||
            !req_ms(ev, "half_period_ms", error, &half)) {
          return false;
        }
        drift(link, start, half, static_cast<int>(opt_num(ev, "cycles", 1)),
              opt_num(ev, "amplitude_us", 100.0) * 1e-6);
      } else if (kind == "drain") {
        topology::NodeId node;
        Time at, restore;
        if (!resolve_node(*topo_, ev, error, &node) || !req_ms(ev, "at_ms", error, &at) ||
            !req_ms(ev, "restore_ms", error, &restore)) {
          return false;
        }
        drain(node, at, restore, opt_num(ev, "capacity_factor", 0.1));
      } else if (kind == "restart") {
        topology::NodeId node;
        Time at;
        if (!resolve_node(*topo_, ev, error, &node) || !req_ms(ev, "at_ms", error, &at)) {
          return false;
        }
        restart(node, at);
      } else {
        *error = "churn-spec: unknown event type \"" + kind + "\"";
        return false;
      }
    }
  }
  if (const JsonValue* gen = root.find("generate"); gen != nullptr) {
    if (gen->kind != JsonValue::Kind::kObject) {
      *error = "churn-spec: \"generate\" must be an object";
      return false;
    }
    Time start, horizon;
    if (!req_ms(*gen, "start_ms", error, &start) ||
        !req_ms(*gen, "horizon_ms", error, &horizon)) {
      return false;
    }
    generate(static_cast<uint64_t>(opt_num(*gen, "seed", 1)), start, horizon,
             static_cast<uint32_t>(opt_num(*gen, "waves", 4)));
  }
  if (events_.empty()) {
    *error = "churn-spec: no events (need \"events\" and/or \"generate\")";
    return false;
  }
  return true;
}

}  // namespace contra::sim
