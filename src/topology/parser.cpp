#include "topology/parser.h"

#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "util/strings.h"

namespace contra::topology {

Topology parse_topology(std::string_view text, double default_capacity_bps,
                        double default_delay_s) {
  Topology topo;
  auto get_or_add = [&](const std::string& name) -> NodeId {
    const NodeId found = topo.find(name);
    return found != kInvalidNode ? found : topo.add_node(name);
  };

  size_t line_no = 0;
  for (const std::string& raw_line : util::split(text, '\n')) {
    ++line_no;
    std::string_view line = util::trim(raw_line);
    if (line.empty() || line[0] == '#') continue;
    const auto fields = util::split_whitespace(line);
    auto fail = [&](const std::string& why) {
      throw std::invalid_argument("topology line " + std::to_string(line_no) + ": " + why);
    };
    if (fields[0] == "node") {
      if (fields.size() != 2) fail("'node' takes exactly one name");
      get_or_add(fields[1]);
    } else if (fields[0] == "link") {
      if (fields.size() < 3 || fields.size() > 5) {
        fail("'link' takes two names and optional capacity/delay");
      }
      if (fields[1] == fields[2]) fail("self-loop link");
      const NodeId a = get_or_add(fields[1]);
      const NodeId b = get_or_add(fields[2]);
      double capacity = default_capacity_bps;
      double delay = default_delay_s;
      try {
        if (fields.size() >= 4) capacity = std::stod(fields[3]) * 1e9;
        if (fields.size() >= 5) delay = std::stod(fields[4]) * 1e-6;
      } catch (const std::exception&) {
        fail("malformed number");
      }
      if (capacity <= 0 || delay < 0) fail("capacity must be positive, delay non-negative");
      topo.add_link(a, b, capacity, delay);
    } else {
      fail("unknown directive '" + fields[0] + "'");
    }
  }
  return topo;
}

// ----- GraphML (Topology Zoo) ------------------------------------------------
//
// A scanning parser for the fixed shape Topology Zoo exports use: flat
// <key>/<node>/<edge> elements, one <data key="..."> child per attribute.
// Enough structure for the corpus without pulling in an XML library.

namespace {

/// Value of `name="..."` inside an element's start tag, or "".
std::string xml_attr(std::string_view tag, std::string_view name) {
  size_t pos = 0;
  while ((pos = tag.find(name, pos)) != std::string_view::npos) {
    // Require attribute-name context: preceded by whitespace, followed by =".
    const bool starts_ok = pos > 0 && (tag[pos - 1] == ' ' || tag[pos - 1] == '\t');
    size_t after = pos + name.size();
    while (after < tag.size() && (tag[after] == ' ' || tag[after] == '\t')) ++after;
    if (!starts_ok || after >= tag.size() || tag[after] != '=') {
      pos += 1;
      continue;
    }
    ++after;
    while (after < tag.size() && (tag[after] == ' ' || tag[after] == '\t')) ++after;
    if (after >= tag.size() || (tag[after] != '"' && tag[after] != '\'')) return "";
    const char quote = tag[after];
    const size_t end = tag.find(quote, after + 1);
    if (end == std::string_view::npos) return "";
    return std::string(tag.substr(after + 1, end - after - 1));
  }
  return "";
}

std::string xml_unescape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '&') {
      out += s[i];
      continue;
    }
    const std::string_view rest = s.substr(i);
    if (rest.rfind("&amp;", 0) == 0) {
      out += '&';
      i += 4;
    } else if (rest.rfind("&lt;", 0) == 0) {
      out += '<';
      i += 3;
    } else if (rest.rfind("&gt;", 0) == 0) {
      out += '>';
      i += 3;
    } else if (rest.rfind("&quot;", 0) == 0) {
      out += '"';
      i += 5;
    } else if (rest.rfind("&apos;", 0) == 0) {
      out += '\'';
      i += 5;
    } else {
      out += s[i];
    }
  }
  return out;
}

struct XmlElement {
  std::string_view tag;    ///< start-tag content, name included, no angle brackets
  std::string_view inner;  ///< body between start and end tag ("" when self-closed)
  size_t end = 0;          ///< offset just past the element in the document
};

/// Next `<name ...>...</name>` or `<name .../>` element at or after `from`.
bool next_element(std::string_view text, std::string_view name, size_t from, XmlElement* out) {
  std::string open = "<";  // appended: `"<" + ...` trips GCC 12's false -Wrestrict
  open += name;
  size_t pos = from;
  while ((pos = text.find(open, pos)) != std::string_view::npos) {
    const char after = pos + open.size() < text.size() ? text[pos + open.size()] : '\0';
    if (after != ' ' && after != '\t' && after != '\n' && after != '\r' && after != '>' &&
        after != '/') {
      pos += open.size();  // e.g. "<node" matching "<nodedata"
      continue;
    }
    const size_t close = text.find('>', pos);
    if (close == std::string_view::npos) return false;
    out->tag = text.substr(pos + 1, close - pos - 1);
    if (text[close - 1] == '/') {  // self-closed
      out->inner = std::string_view();
      out->end = close + 1;
      return true;
    }
    const std::string end_tag = "</" + std::string(name) + ">";
    const size_t end = text.find(end_tag, close + 1);
    if (end == std::string_view::npos) {
      throw std::invalid_argument("graphml: unterminated <" + std::string(name) + "> element");
    }
    out->inner = text.substr(close + 1, end - close - 1);
    out->end = end + end_tag.size();
    return true;
  }
  return false;
}

/// All `<data key="...">value</data>` children of an element body.
std::map<std::string, std::string> data_children(std::string_view inner) {
  std::map<std::string, std::string> out;
  XmlElement data;
  size_t pos = 0;
  while (next_element(inner, "data", pos, &data)) {
    out[xml_attr(data.tag, "key")] = xml_unescape(std::string(util::trim(data.inner)));
    pos = data.end;
  }
  return out;
}

/// Great-circle distance (meters) on the WGS-84 mean radius.
double haversine_m(double lat1, double lon1, double lat2, double lon2) {
  constexpr double kRad = 3.14159265358979323846 / 180.0;
  const double dlat = (lat2 - lat1) * kRad;
  const double dlon = (lon2 - lon1) * kRad;
  const double a = std::sin(dlat / 2) * std::sin(dlat / 2) +
                   std::cos(lat1 * kRad) * std::cos(lat2 * kRad) * std::sin(dlon / 2) *
                       std::sin(dlon / 2);
  return 2.0 * 6371e3 * std::asin(std::min(1.0, std::sqrt(a)));
}

}  // namespace

Topology parse_graphml(std::string_view text, double default_capacity_bps,
                       double default_delay_s) {
  // Pass 1: key declarations map attribute names to the per-document key ids
  // the <data> children reference.
  std::string key_label, key_lat, key_lon, key_speed;
  XmlElement elem;
  size_t pos = 0;
  while (next_element(text, "key", pos, &elem)) {
    const std::string attr = xml_attr(elem.tag, "attr.name");
    const std::string id = xml_attr(elem.tag, "id");
    if (attr == "label") key_label = id;
    if (attr == "Latitude") key_lat = id;
    if (attr == "Longitude") key_lon = id;
    if (attr == "LinkSpeedRaw") key_speed = id;
    pos = elem.end;
  }

  Topology topo;
  struct NodeGeo {
    double lat = 0.0, lon = 0.0;
    bool located = false;
  };
  std::map<std::string, NodeId> by_graphml_id;
  std::vector<NodeGeo> geo;

  pos = 0;
  while (next_element(text, "node", pos, &elem)) {
    const std::string id = xml_attr(elem.tag, "id");
    if (id.empty()) throw std::invalid_argument("graphml: <node> without id");
    const auto data = data_children(elem.inner);
    std::string name;
    if (auto it = data.find(key_label); it != data.end()) name = it->second;
    // Zoo labels can be empty or repeat ("None"); keep names unique by
    // falling back to the document id.
    if (name.empty() || topo.find(name) != kInvalidNode) {
      name = name.empty() ? "n" + id : name + "_" + id;
    }
    if (topo.find(name) != kInvalidNode) name += "#";
    by_graphml_id[id] = topo.add_node(name);
    NodeGeo g;
    try {
      const auto lat = data.find(key_lat);
      const auto lon = data.find(key_lon);
      if (lat != data.end() && lon != data.end()) {
        g.lat = std::stod(lat->second);
        g.lon = std::stod(lon->second);
        g.located = true;
      }
    } catch (const std::exception&) {
      g.located = false;
    }
    geo.push_back(g);
    pos = elem.end;
  }
  if (topo.num_nodes() == 0) throw std::invalid_argument("graphml: no <node> elements");

  std::map<std::pair<NodeId, NodeId>, bool> seen;
  pos = 0;
  while (next_element(text, "edge", pos, &elem)) {
    pos = elem.end;
    const std::string src = xml_attr(elem.tag, "source");
    const std::string dst = xml_attr(elem.tag, "target");
    const auto a = by_graphml_id.find(src);
    const auto b = by_graphml_id.find(dst);
    if (a == by_graphml_id.end() || b == by_graphml_id.end()) {
      throw std::invalid_argument("graphml: edge references unknown node '" + src + "'/'" + dst +
                                  "'");
    }
    if (a->second == b->second) continue;  // self-loop
    const std::pair<NodeId, NodeId> key{std::min(a->second, b->second),
                                        std::max(a->second, b->second)};
    if (!seen.insert({key, true}).second) continue;  // parallel edge

    double capacity = default_capacity_bps;
    const auto data = data_children(elem.inner);
    if (auto it = data.find(key_speed); it != data.end()) {
      try {
        const double raw = std::stod(it->second);
        if (raw > 0) capacity = raw;
      } catch (const std::exception&) {
      }
    }
    double delay = default_delay_s;
    const NodeGeo& ga = geo[a->second];
    const NodeGeo& gb = geo[b->second];
    if (ga.located && gb.located) {
      // Fiber propagation at ~2/3 c; keep the default as a floor so
      // co-located sites still get a positive, schedulable delay.
      const double dist = haversine_m(ga.lat, ga.lon, gb.lat, gb.lon);
      delay = std::max(default_delay_s, dist / 2e8);
    }
    topo.add_link(a->second, b->second, capacity, delay);
  }
  if (topo.num_links() == 0) throw std::invalid_argument("graphml: no usable <edge> elements");
  return topo;
}

Topology parse_topology_auto(std::string_view text, double default_capacity_bps,
                             double default_delay_s) {
  if (text.find("<graphml") != std::string_view::npos) {
    return parse_graphml(text, default_capacity_bps, default_delay_s);
  }
  return parse_topology(text, default_capacity_bps, default_delay_s);
}

std::string format_topology(const Topology& topo) {
  std::ostringstream out;
  for (NodeId n = 0; n < topo.num_nodes(); ++n) out << "node " << topo.name(n) << "\n";
  for (LinkId l = 0; l < topo.num_links(); ++l) {
    const DirectedLink& link = topo.link(l);
    if (link.from > link.to) continue;  // emit each cable once
    char buf[64];
    std::snprintf(buf, sizeof buf, " %.6g %.6g", link.capacity_bps / 1e9, link.delay_s * 1e6);
    out << "link " << topo.name(link.from) << " " << topo.name(link.to) << buf << "\n";
  }
  return out.str();
}

}  // namespace contra::topology
