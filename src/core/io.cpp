#include "core/io.h"

#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace mecsc::core {

using util::JsonArray;
using util::JsonObject;
using util::JsonValue;
using View = util::JsonArena::View;

namespace {

/// Validated numeric extraction. Documents arrive from untrusted sources
/// (files, the svc socket), so every number is checked *before* any cast:
/// a negative or NaN double cast to an unsigned index is undefined
/// behavior, and a plausible-looking huge index would silently allocate.
/// Every rejection names the offending element and the violated bound so
/// the producer can fix the document without reading this source.

[[noreturn]] void reject(const std::string& where, const std::string& why) {
  throw std::invalid_argument("io: " + where + ": " + why);
}

double checked_finite(const View& v, const std::string& where) {
  const double d = v.as_number();
  if (!std::isfinite(d)) reject(where, "must be finite");
  return d;
}

double checked_nonneg(const View& v, const std::string& where) {
  const double d = checked_finite(v, where);
  if (d < 0.0) {
    reject(where, "is " + util::JsonValue(d).dump() + " but must be >= 0");
  }
  return d;
}

double checked_fraction(const View& v, const std::string& where) {
  const double d = checked_finite(v, where);
  if (d < 0.0 || d > 1.0) {
    reject(where,
           "is " + util::JsonValue(d).dump() + " but must be in [0, 1]");
  }
  return d;
}

/// Index in [0, bound): integral, non-negative, in range.
std::size_t checked_index(const View& v, const std::string& where,
                          std::size_t bound, const std::string& bound_name) {
  const double d = checked_finite(v, where);
  if (d < 0.0 || d != std::floor(d)) {
    reject(where,
           "is " + util::JsonValue(d).dump() +
               " but must be a non-negative integer");
  }
  if (d >= static_cast<double>(bound)) {
    reject(where, "is " + util::JsonValue(d).dump() + " but only " +
                      std::to_string(bound) + " " + bound_name + " exist");
  }
  return static_cast<std::size_t>(d);
}

/// Non-negative integral count (no upper bound).
std::size_t checked_count(const View& v, const std::string& where) {
  const double d = checked_finite(v, where);
  if (d < 0.0 || d != std::floor(d)) {
    reject(where,
           "is " + util::JsonValue(d).dump() +
               " but must be a non-negative integer");
  }
  return static_cast<std::size_t>(d);
}

JsonValue graph_to_json(const net::Graph& g) {
  JsonArray edges;
  edges.reserve(g.edge_count());
  for (const net::Edge& e : g.edges()) {
    edges.push_back(JsonValue(JsonArray{
        JsonValue(e.u), JsonValue(e.v), JsonValue(e.length),
        JsonValue(e.bandwidth_mbps)}));
  }
  return JsonValue(JsonObject{{"nodes", JsonValue(g.node_count())},
                              {"edges", JsonValue(std::move(edges))}});
}

net::Graph graph_from_arena(const View& doc) {
  const std::size_t nodes = checked_count(doc.at("nodes"), "topology.nodes");
  if (nodes == 0) reject("topology.nodes", "graph needs at least one node");
  net::Graph g(nodes);
  std::size_t idx = 0;
  for (const View e : doc.at("edges").as_array()) {
    const std::string where = "topology.edges[" + std::to_string(idx++) + "]";
    const auto t = e.as_array();
    if (t.size() != 4) {
      reject(where, "edge tuple has " + std::to_string(t.size()) +
                        " elements but must be [u, v, length, bandwidth]");
    }
    const std::size_t u = checked_index(t[0], where + ".u", nodes, "nodes");
    const std::size_t v = checked_index(t[1], where + ".v", nodes, "nodes");
    const double length = checked_nonneg(t[2], where + ".length");
    const double bw = checked_nonneg(t[3], where + ".bandwidth");
    if (u == v) reject(where, "self-loop on node " + std::to_string(u));
    g.add_edge(u, v, length, bw);
  }
  return g;
}

CongestionKind congestion_kind_from_name(std::string_view name) {
  for (const auto kind :
       {CongestionKind::Linear, CongestionKind::Quadratic,
        CongestionKind::Exponential, CongestionKind::Harmonic}) {
    if (name == congestion_kind_name(kind)) return kind;
  }
  throw std::invalid_argument("io: unknown congestion kind '" +
                              std::string(name) + "'");
}

}  // namespace

Instance instance_from_arena(const View& doc) {
  const double version = checked_finite(doc.at("format_version"),
                                        "format_version");
  if (static_cast<int>(version) != kIoFormatVersion ||
      version != std::floor(version)) {
    reject("format_version",
           "is " + JsonValue(version).dump() + " but this build reads version " +
               std::to_string(kIoFormatVersion));
  }
  net::Graph topology = graph_from_arena(doc.at("topology"));
  const std::size_t nodes = topology.node_count();

  std::vector<net::Cloudlet> cloudlets;
  std::size_t idx = 0;
  for (const View c : doc.at("cloudlets").as_array()) {
    const std::string where = "cloudlets[" + std::to_string(idx++) + "]";
    net::Cloudlet cl;
    cl.node = static_cast<net::NodeId>(
        checked_index(c.at("node"), where + ".node", nodes, "nodes"));
    cl.compute_capacity = checked_nonneg(c.at("compute"), where + ".compute");
    cl.bandwidth_capacity =
        checked_nonneg(c.at("bandwidth"), where + ".bandwidth");
    cloudlets.push_back(cl);
  }
  std::vector<net::DataCenter> dcs;
  idx = 0;
  for (const View d : doc.at("data_centers").as_array()) {
    const std::string where = "data_centers[" + std::to_string(idx++) + "]";
    dcs.push_back(net::DataCenter{
        static_cast<net::NodeId>(checked_index(d, where, nodes, "nodes"))});
  }
  if (cloudlets.empty() || dcs.empty()) {
    throw std::invalid_argument("io: need at least one cloudlet and DC");
  }

  Instance inst{net::MecNetwork(std::move(topology), std::move(cloudlets),
                                std::move(dcs)),
                {},
                {}};

  idx = 0;
  for (const View p : doc.at("providers").as_array()) {
    const std::string where = "providers[" + std::to_string(idx++) + "]";
    ServiceProvider sp;
    sp.compute_per_request =
        checked_nonneg(p.at("compute_per_request"),
                       where + ".compute_per_request");
    sp.bandwidth_per_request =
        checked_nonneg(p.at("bandwidth_per_request"),
                       where + ".bandwidth_per_request");
    sp.requests = checked_count(p.at("requests"), where + ".requests");
    sp.instantiation_cost =
        checked_nonneg(p.at("instantiation_cost"),
                       where + ".instantiation_cost");
    sp.service_data_gb =
        checked_nonneg(p.at("service_data_gb"), where + ".service_data_gb");
    sp.update_fraction =
        checked_fraction(p.at("update_fraction"), where + ".update_fraction");
    sp.traffic_gb = checked_nonneg(p.at("traffic_gb"), where + ".traffic_gb");
    sp.home_dc = static_cast<DataCenterId>(
        checked_index(p.at("home_dc"), where + ".home_dc",
                      inst.network.data_center_count(), "data centers"));
    sp.user_region = static_cast<CloudletId>(
        checked_index(p.at("user_region"), where + ".user_region",
                      inst.network.cloudlet_count(), "cloudlets"));
    inst.providers.push_back(sp);
  }

  const View cost = doc.at("cost");
  idx = 0;
  for (const View a : cost.at("alpha").as_array()) {
    inst.cost.alpha.push_back(
        checked_nonneg(a, "cost.alpha[" + std::to_string(idx++) + "]"));
  }
  idx = 0;
  for (const View b : cost.at("beta").as_array()) {
    inst.cost.beta.push_back(
        checked_nonneg(b, "cost.beta[" + std::to_string(idx++) + "]"));
  }
  if (inst.cost.alpha.size() != inst.network.cloudlet_count() ||
      inst.cost.beta.size() != inst.network.cloudlet_count()) {
    reject("cost",
           "alpha has " + std::to_string(inst.cost.alpha.size()) +
               " and beta " + std::to_string(inst.cost.beta.size()) +
               " entries but the instance has " +
               std::to_string(inst.network.cloudlet_count()) + " cloudlets");
  }
  inst.cost.transfer_price_per_gb = checked_nonneg(
      cost.at("transfer_price_per_gb"), "cost.transfer_price_per_gb");
  inst.cost.processing_price_per_gb = checked_nonneg(
      cost.at("processing_price_per_gb"), "cost.processing_price_per_gb");
  inst.cost.vm_boot_cost =
      checked_nonneg(cost.at("vm_boot_cost"), "cost.vm_boot_cost");
  inst.cost.remote_hop_penalty = checked_nonneg(
      cost.at("remote_hop_penalty"), "cost.remote_hop_penalty");
  inst.cost.congestion =
      congestion_kind_from_name(cost.string_at("congestion"));
  return inst;
}

JsonValue instance_to_json(const Instance& inst) {
  JsonObject root;
  root["format_version"] = JsonValue(kIoFormatVersion);
  root["topology"] = graph_to_json(inst.network.topology());

  JsonArray cloudlets;
  for (const net::Cloudlet& cl : inst.network.cloudlets()) {
    cloudlets.push_back(JsonValue(JsonObject{
        {"node", JsonValue(cl.node)},
        {"compute", JsonValue(cl.compute_capacity)},
        {"bandwidth", JsonValue(cl.bandwidth_capacity)}}));
  }
  root["cloudlets"] = JsonValue(std::move(cloudlets));

  JsonArray dcs;
  for (const net::DataCenter& dc : inst.network.data_centers()) {
    dcs.push_back(JsonValue(dc.node));
  }
  root["data_centers"] = JsonValue(std::move(dcs));

  JsonArray providers;
  for (const ServiceProvider& p : inst.providers) {
    providers.push_back(JsonValue(JsonObject{
        {"compute_per_request", JsonValue(p.compute_per_request)},
        {"bandwidth_per_request", JsonValue(p.bandwidth_per_request)},
        {"requests", JsonValue(p.requests)},
        {"instantiation_cost", JsonValue(p.instantiation_cost)},
        {"service_data_gb", JsonValue(p.service_data_gb)},
        {"update_fraction", JsonValue(p.update_fraction)},
        {"traffic_gb", JsonValue(p.traffic_gb)},
        {"home_dc", JsonValue(p.home_dc)},
        {"user_region", JsonValue(p.user_region)}}));
  }
  root["providers"] = JsonValue(std::move(providers));

  JsonObject cost;
  cost["alpha"] = JsonValue(JsonArray(inst.cost.alpha.begin(),
                                      inst.cost.alpha.end()));
  cost["beta"] =
      JsonValue(JsonArray(inst.cost.beta.begin(), inst.cost.beta.end()));
  cost["transfer_price_per_gb"] = JsonValue(inst.cost.transfer_price_per_gb);
  cost["processing_price_per_gb"] =
      JsonValue(inst.cost.processing_price_per_gb);
  cost["vm_boot_cost"] = JsonValue(inst.cost.vm_boot_cost);
  cost["remote_hop_penalty"] = JsonValue(inst.cost.remote_hop_penalty);
  cost["congestion"] =
      JsonValue(std::string(congestion_kind_name(inst.cost.congestion)));
  root["cost"] = JsonValue(std::move(cost));
  return JsonValue(std::move(root));
}

Instance instance_from_json(const JsonValue& doc) {
  return instance_from_arena(util::JsonArena::from_json_value(doc).root());
}

Instance instance_from_json_text(std::string_view text) {
  return instance_from_arena(util::parse_json_arena(text).root());
}

JsonValue assignment_to_json(const Assignment& a) {
  JsonArray choices;
  choices.reserve(a.provider_count());
  for (ProviderId l = 0; l < a.provider_count(); ++l) {
    const std::size_t c = a.choice(l);
    choices.push_back(c == kRemote ? JsonValue(nullptr) : JsonValue(c));
  }
  return JsonValue(JsonObject{
      {"format_version", JsonValue(kIoFormatVersion)},
      {"choices", JsonValue(std::move(choices))},
      {"social_cost", JsonValue(a.social_cost())},
      {"potential", JsonValue(a.potential())}});
}

Assignment assignment_from_json(const Instance& inst, const JsonValue& doc) {
  const util::JsonArena arena = util::JsonArena::from_json_value(doc);
  const auto choices = arena.root().at("choices").as_array();
  if (choices.size() != inst.provider_count()) {
    throw std::invalid_argument("io: profile size mismatch");
  }
  Assignment a(inst);
  ProviderId l = 0;
  for (const View choice : choices) {
    if (!choice.is_null()) {  // null = remote
      const std::string where = "choices[" + std::to_string(l) + "]";
      const std::size_t c = checked_index(choice, where,
                                          inst.cloudlet_count(), "cloudlets");
      if (!a.can_move(l, c)) {
        reject(where, "placing provider " + std::to_string(l) +
                          " on cloudlet " + std::to_string(c) +
                          " violates its capacities");
      }
      a.move(l, c);
    }
    ++l;
  }
  return a;
}

std::string read_text_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open '" + path + "' for reading");
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void write_text_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open '" + path + "' for writing");
  out << content;
  if (!out) throw std::runtime_error("failed writing '" + path + "'");
}

}  // namespace mecsc::core
