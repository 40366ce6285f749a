#include "p4gen/p4gen.h"

#include <algorithm>
#include <sstream>

#include "lang/printer.h"

namespace contra::p4gen {

namespace {

void emit_header(std::ostringstream& out, const compiler::CompileResult& result) {
  const uint32_t tag_bits = std::max(1u, result.tag_bits());
  out << "// Auto-generated by the Contra compiler — do not edit.\n";
  out << "// Policy: " << lang::to_string(result.decomposition.original) << "\n";
  out << "// Subpolicies (probe ids):\n";
  for (size_t pid = 0; pid < result.decomposition.subpolicies.size(); ++pid) {
    out << "//   pid " << pid << ": minimize "
        << result.decomposition.subpolicies[pid].description << "\n";
  }
  out << "#include <core.p4>\n#include <v1model.p4>\n\n";
  out << "typedef bit<16> switch_id_t;\n";
  out << "typedef bit<" << tag_bits << "> tag_t;\n";
  out << "typedef bit<8>  pid_t;\n";
  out << "typedef bit<16> version_t;\n";
  out << "typedef bit<32> metric_t;  // Q16.16 fixed point\n\n";

  out << "header ethernet_t {\n"
         "    bit<48> dst_addr;\n"
         "    bit<48> src_addr;\n"
         "    bit<16> ether_type;  // CONTRA_PROBE=0x88B5, CONTRA_DATA=0x88B6\n"
         "}\n\n";
  out << "header contra_probe_t {\n"
         "    switch_id_t origin;     // probe-originating destination\n"
         "    pid_t       pid;\n"
         "    tag_t       tag;        // PG virtual-node tag\n"
         "    version_t   version;    // §5.1 versioned probes\n";
  for (size_t i = 0; i < result.decomposition.attrs.size(); ++i) {
    out << "    metric_t    mv_" << lang::path_attr_name(result.decomposition.attrs[i])
        << ";\n";
  }
  out << "}\n\n";
  out << "header contra_data_t {\n"
         "    switch_id_t dst;\n"
         "    pid_t       pid;\n"
         "    tag_t       tag;        // rewritten hop by hop (§4.2)\n"
         "    bit<8>      ttl;        // loop detection input (§5.5)\n"
         "}\n\n";
}

void emit_registers(std::ostringstream& out, const compiler::CompileResult& result,
                    const compiler::SwitchConfig& config) {
  const uint64_t fwdt = std::max<uint64_t>(1, config.footprint.fwdt_entries);
  out << "// FwdT: [dst, tag, pid] -> (mv, ntag, nhop, version)\n";
  out << "register<bit<32>>(" << fwdt << ") fwdt_mv;\n";
  out << "register<bit<32>>(" << fwdt << ") fwdt_ntag_nhop;\n";
  out << "register<version_t>(" << fwdt << ") fwdt_version;\n";
  out << "// BestT: best (tag, pid) per destination (§4.2 BestT)\n";
  out << "register<bit<32>>(" << std::max<uint64_t>(1, result.switches.size())
      << ") bestt_key;\n";
  out << "// Policy-aware flowlet state (§5.3): keyed by (tag, pid, fid)\n";
  out << "register<bit<32>>(1024) flowlet_nhop;\n";
  out << "register<bit<48>>(1024) flowlet_last_seen;\n";
  out << "// Loop-detection table (§5.5): CRC(packet) -> (maxttl, minttl)\n";
  out << "register<bit<8>>(256) loop_maxttl;\n";
  out << "register<bit<8>>(256) loop_minttl;\n\n";
}

void emit_tag_tables(std::ostringstream& out, const compiler::CompileResult& result,
                     const compiler::SwitchConfig& config) {
  out << "// NEXTPGNODE: the arriving probe's tag determines the local\n"
         "// virtual node (product-graph transition restricted to this switch).\n";
  out << "action set_local_tag(tag_t t) { meta.local_tag = t; }\n";
  out << "action tag_miss() { mark_to_drop(standard_metadata); }\n";
  out << "table tag_step {\n"
         "    key = { hdr.probe.tag : exact; }\n"
         "    actions = { set_local_tag; tag_miss; }\n"
         "    const default_action = tag_miss();\n"
         "    const entries = {\n";
  for (const auto& entry : config.tag_step) {
    out << "        " << entry.in_tag << " : set_local_tag(" << entry.local_tag << ");\n";
  }
  out << "    }\n}\n\n";

  out << "// MULTICASTPROBE: PG out-edges of each local virtual node.\n";
  out << "action probe_out(bit<9> port, tag_t ntag) {\n"
         "    standard_metadata.egress_spec = port;\n"
         "    hdr.probe.tag = ntag;\n"
         "}\n";
  out << "table probe_multicast {\n"
         "    key = { meta.local_tag : exact; meta.clone_index : exact; }\n"
         "    actions = { probe_out; NoAction; }\n"
         "    const entries = {\n";
  // Per local tag, clone indices enumerate the out-edges.
  uint32_t previous_tag = UINT32_MAX;
  uint32_t clone_index = 0;
  for (const auto& entry : config.multicast) {
    if (entry.local_tag != previous_tag) {
      previous_tag = entry.local_tag;
      clone_index = 0;
    }
    const auto& link = result.graph.topo().link(entry.out_link);
    out << "        (" << entry.local_tag << ", " << clone_index << ") : probe_out("
        << (entry.out_link % 512) << " /* to " << result.graph.topo().name(link.to)
        << " */, " << entry.neighbor_tag << ");\n";
    ++clone_index;
  }
  out << "    }\n}\n\n";
}

void emit_metadata_and_parser(std::ostringstream& out,
                              const compiler::CompileResult& result) {
  out << "struct metadata {\n"
         "    tag_t    local_tag;\n"
         "    bit<8>   clone_index;\n"
         "    bit<1>   from_host;\n"
         "    bit<1>   flush_flowlet;\n"
         "    bit<32>  pkt_sig;        // CRC32 packet signature (§5.5)\n"
         "    bit<32>  flowlet_idx;\n"
         "    bit<8>   loop_threshold;\n";
  for (const auto attr : result.decomposition.attrs) {
    out << "    metric_t link_" << lang::path_attr_name(attr)
        << ";     // ingress-link metric (UPDATEMVEC input)\n";
  }
  out << "}\n\n";
  out << "struct headers {\n"
         "    ethernet_t     ethernet;\n"
         "    contra_probe_t probe;\n"
         "    contra_data_t  data;\n"
         "}\n\n";
  out << "parser ContraParser(packet_in pkt, out headers hdr, inout metadata meta,\n"
         "                    inout standard_metadata_t standard_metadata) {\n"
         "    state start {\n"
         "        pkt.extract(hdr.ethernet);\n"
         "        transition select(hdr.ethernet.ether_type) {\n"
         "            0x88B5: parse_probe;\n"
         "            0x88B6: parse_data;\n"
         "            default: accept;\n"
         "        }\n"
         "    }\n"
         "    state parse_probe { pkt.extract(hdr.probe); transition accept; }\n"
         "    state parse_data  { pkt.extract(hdr.data);  transition accept; }\n"
         "}\n\n";
  out << "control ContraVerifyChecksum(inout headers hdr, inout metadata meta) {\n"
         "    apply { }\n"
         "}\n"
         "control ContraComputeChecksum(inout headers hdr, inout metadata meta) {\n"
         "    apply { }\n"
         "}\n"
         "control ContraDeparser(packet_out pkt, in headers hdr) {\n"
         "    apply {\n"
         "        pkt.emit(hdr.ethernet);\n"
         "        pkt.emit(hdr.probe);\n"
         "        pkt.emit(hdr.data);\n"
         "    }\n"
         "}\n\n";
}

void emit_top_level_controls(std::ostringstream& out) {
  out << "control ContraIngress(inout headers hdr, inout metadata meta,\n"
         "                      inout standard_metadata_t standard_metadata) {\n"
         "    apply {\n"
         "        if (hdr.probe.isValid()) {\n"
         "            ProcessProbe.apply(hdr, meta, standard_metadata);\n"
         "        } else if (hdr.data.isValid()) {\n"
         "            ForwardData.apply(hdr, meta, standard_metadata);\n"
         "        }\n"
         "    }\n"
         "}\n"
         "control ContraEgress(inout headers hdr, inout metadata meta,\n"
         "                     inout standard_metadata_t standard_metadata) {\n"
         "    apply { }\n"
         "}\n\n";
}

void emit_probe_pipeline(std::ostringstream& out, const compiler::CompileResult& result) {
  out << "// PROCESSPROBE (§4.3): update mv with the ingress link metric,\n"
         "// compare under f(pid, mv), update FwdT/BestT, multicast onward.\n";
  out << "control ProcessProbe(inout headers hdr, inout metadata meta,\n"
         "                     inout standard_metadata_t standard_metadata) {\n"
         "    apply {\n"
         "        // mv update: bottleneck metrics take max with the inbound\n"
         "        // link, additive metrics accumulate.\n";
  for (const auto attr : result.decomposition.attrs) {
    const char* name = lang::path_attr_name(attr);
    if (attr == lang::PathAttr::kUtil) {
      out << "        hdr.probe.mv_" << name << " = (hdr.probe.mv_" << name
          << " > meta.link_" << name << ") ? hdr.probe.mv_" << name << " : meta.link_"
          << name << ";\n";
    } else if (attr == lang::PathAttr::kLen) {
      out << "        hdr.probe.mv_" << name << " = hdr.probe.mv_" << name
          << " + 32w0x10000;  // +1 hop in Q16.16\n";
    } else {
      out << "        hdr.probe.mv_" << name << " = hdr.probe.mv_" << name
          << " + meta.link_" << name << ";\n";
    }
  }
  out << "        tag_step.apply();\n"
         "        // version check (§5.1): drop probes older than the stored\n"
         "        // entry; accept equal-or-newer and compare f(pid, mv).\n"
         "        // (register reads/updates elided into externs for brevity)\n"
         "        probe_multicast.apply();\n"
         "    }\n"
         "}\n\n";
}

void emit_forward_pipeline(std::ostringstream& out) {
  out << "// SWIFORWARDPKT (§4.2) + policy-aware flowlet switching (§5.3) +\n"
         "// lazy loop breaking (§5.5).\n";
  out << "control ForwardData(inout headers hdr, inout metadata meta,\n"
         "                    inout standard_metadata_t standard_metadata) {\n"
         "    apply {\n"
         "        if (meta.from_host == 1) {\n"
         "            // First switch: consult BestT for the preferred\n"
         "            // (tag, pid) of this destination and stamp the packet.\n"
         "            bit<32> key; bestt_key.read(key, (bit<32>)hdr.data.dst);\n"
         "            hdr.data.tag = (tag_t)key[7:0];\n"
         "            hdr.data.pid = (pid_t)key[15:8];\n"
         "        }\n"
         "        // Loop detection: widen the TTL spread for this packet\n"
         "        // signature; a spread beyond the threshold flushes the\n"
         "        // flowlet entry so the packet re-rates against FwdT.\n"
         "        bit<8> maxttl; bit<8> minttl;\n"
         "        loop_maxttl.read(maxttl, meta.pkt_sig);\n"
         "        loop_minttl.read(minttl, meta.pkt_sig);\n"
         "        if (maxttl - minttl > meta.loop_threshold) {\n"
         "            meta.flush_flowlet = 1;\n"
         "        }\n"
         "        // Flowlet lookup keyed by (tag, pid, fid): within the gap,\n"
         "        // reuse the pinned next hop; otherwise adopt FwdT's current\n"
         "        // best and re-pin.\n"
         "        // FwdT lookup: [dst, tag, pid] -> (ntag, nhop); rewrite\n"
         "        // hdr.data.tag = ntag and forward out nhop.\n"
         "    }\n"
         "}\n\n";
}

}  // namespace

std::string generate_common_headers(const compiler::CompileResult& result) {
  std::ostringstream out;
  emit_header(out, result);
  return out.str();
}

std::string generate_p4(const compiler::CompileResult& result,
                        const compiler::SwitchConfig& config) {
  std::ostringstream out;
  emit_header(out, result);
  out << "// ======== switch " << config.name << " (node " << config.node << ") ========\n";
  if (config.is_destination) {
    out << "// Probe origin: INITPROBE sends tag " << config.origin_tag
        << " every probe period.\n";
  } else {
    out << "// Not a valid destination under this policy (no probe origin).\n";
  }
  out << "\n";
  emit_metadata_and_parser(out, result);
  emit_registers(out, result, config);
  emit_tag_tables(out, result, config);
  emit_probe_pipeline(out, result);
  emit_forward_pipeline(out);
  emit_top_level_controls(out);
  out << "V1Switch(ContraParser(), ContraVerifyChecksum(), ContraIngress(),\n"
         "         ContraEgress(), ContraComputeChecksum(), ContraDeparser()) main;\n";
  return out.str();
}

std::string generate_all(const compiler::CompileResult& result) {
  std::ostringstream out;
  for (const auto& config : result.switches) {
    out << "//////////////////////////////////////////////////////////////////\n";
    out << generate_p4(result, config) << "\n";
  }
  return out.str();
}

}  // namespace contra::p4gen
