#include "campaign/artifact_store.h"

#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>
#include <utility>

#include "util/json_reader.h"
#include "util/json_writer.h"

namespace mrvd {

namespace fs = std::filesystem;

RunArtifact MakeRunArtifact(const RunResult& result) {
  RunArtifact a;
  a.dispatcher_name = result.dispatcher;
  a.wall_seconds = result.wall_seconds;
  a.revenue = result.result.total_revenue;
  a.served = result.result.served_orders;
  a.reneged = result.result.reneged_orders;
  a.cancelled = result.result.cancelled_orders;
  a.total_orders = result.result.total_orders;
  a.num_batches = result.result.num_batches;
  a.service_rate = result.result.ServiceRate();
  a.wait_mean_s = result.result.served_wait_seconds.mean();
  a.idle_mean_s = result.result.driver_idle_seconds.mean();
  a.dispatch_ms_mean = result.result.batch_seconds.mean() * 1e3;
  a.build_ms_mean = result.result.batch_build_seconds.mean() * 1e3;
  a.dispatch_ms_p50 = result.result.batch_seconds.P50() * 1e3;
  a.dispatch_ms_p95 = result.result.batch_seconds.P95() * 1e3;
  a.dispatch_ms_p99 = result.result.batch_seconds.P99() * 1e3;
  return a;
}

ArtifactStore::ArtifactStore(std::string dir) : dir_(std::move(dir)) {}

std::string ArtifactStore::RunPath(const std::string& key) const {
  return (fs::path(dir_) / ("run-" + key + ".json")).string();
}

std::string ArtifactStore::TelemetryPath(const std::string& key) const {
  return (fs::path(dir_) / ("telemetry-" + key + ".json")).string();
}

std::string ArtifactStore::ManifestPath() const {
  return (fs::path(dir_) / "manifest.json").string();
}

std::string ArtifactStore::SpecPath() const {
  return (fs::path(dir_) / "campaign.json").string();
}

Status ArtifactStore::Init() const {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    return Status::IoError("could not create campaign directory '" + dir_ +
                           "': " + ec.message());
  }
  return Status::OK();
}

Status ArtifactStore::WriteFileAtomic(const std::string& path,
                                      const std::string& content) {
  // Temp-then-rename: readers (and resumed campaigns) never observe a
  // partially written file under the final name. The temp name is unique
  // per target, and concurrent writers only ever target distinct cells.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream file(tmp, std::ios::binary | std::ios::trunc);
    if (!file) {
      return IoErrorFromErrno("could not open '" + tmp + "' for writing");
    }
    file << content;
    file.flush();
    if (!file) {
      Status st = IoErrorFromErrno("could not write '" + tmp + "'");
      std::remove(tmp.c_str());
      return st;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    Status st = IoErrorFromErrno("could not rename '" + tmp + "' to '" + path +
                                 "'");
    std::remove(tmp.c_str());
    return st;
  }
  return Status::OK();
}

Status ArtifactStore::SaveRun(const CampaignCell& cell,
                              const RunArtifact& artifact) const {
  std::ostringstream os;
  JsonWriter w(os);
  w.BeginObject();
  w.Key("key").String(cell.key);
  w.Key("workload").String(cell.workload);
  w.Key("scenario").String(cell.scenario);
  w.Key("dispatcher_spec").String(cell.dispatcher);
  w.Key("config_delta").String(cell.config_delta);
  w.Key("seed").Number(cell.seed);
  w.Key("dispatcher").String(artifact.dispatcher_name);
  w.Key("wall_seconds").Number(artifact.wall_seconds);
  w.Key("revenue").Number(artifact.revenue);
  w.Key("served").Number(artifact.served);
  w.Key("reneged").Number(artifact.reneged);
  w.Key("cancelled").Number(artifact.cancelled);
  w.Key("total_orders").Number(artifact.total_orders);
  w.Key("num_batches").Number(artifact.num_batches);
  w.Key("service_rate").Number(artifact.service_rate);
  w.Key("wait_mean_s").Number(artifact.wait_mean_s);
  w.Key("idle_mean_s").Number(artifact.idle_mean_s);
  w.Key("dispatch_ms_mean").Number(artifact.dispatch_ms_mean);
  w.Key("build_ms_mean").Number(artifact.build_ms_mean);
  w.Key("dispatch_ms_p50").Number(artifact.dispatch_ms_p50);
  w.Key("dispatch_ms_p95").Number(artifact.dispatch_ms_p95);
  w.Key("dispatch_ms_p99").Number(artifact.dispatch_ms_p99);
  w.Key("hourly").BeginArray();
  for (size_t h = 0; h < artifact.hourly.size(); ++h) {
    const HourlyRow& row = artifact.hourly[h];
    w.BeginObject();
    w.Key("hour").Number(static_cast<int64_t>(h));
    w.Key("served").Number(row.served);
    w.Key("reneged").Number(row.reneged);
    w.Key("cancelled").Number(row.cancelled);
    w.Key("revenue").Number(row.revenue);
    w.Key("wait_seconds_sum").Number(row.wait_seconds_sum);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  os << "\n";
  return WriteFileAtomic(RunPath(cell.key), os.str());
}

Status ArtifactStore::SaveTelemetry(const CampaignCell& cell,
                                    const std::string& json) const {
  return WriteFileAtomic(TelemetryPath(cell.key), json);
}

StatusOr<RunArtifact> ArtifactStore::LoadRun(const CampaignCell& cell) const {
  StatusOr<JsonValue> doc = ReadJsonFile(RunPath(cell.key));
  if (!doc.ok()) return doc.status();

  // The key embeds every axis value, so checking it alone would suffice —
  // but a hand-edited artifact could lie. Verify the axes too; any
  // mismatch means "this is not the run you are looking for".
  StatusOr<std::string> key = doc->GetString("key");
  if (!key.ok()) return key.status();
  StatusOr<std::string> workload = doc->GetString("workload");
  if (!workload.ok()) return workload.status();
  StatusOr<std::string> scenario = doc->GetString("scenario");
  if (!scenario.ok()) return scenario.status();
  StatusOr<std::string> dispatcher_spec = doc->GetString("dispatcher_spec");
  if (!dispatcher_spec.ok()) return dispatcher_spec.status();
  StatusOr<std::string> delta = doc->GetString("config_delta");
  if (!delta.ok()) return delta.status();
  StatusOr<uint64_t> seed = doc->GetUint64("seed");
  if (!seed.ok()) return seed.status();
  if (*key != cell.key || *workload != cell.workload ||
      *scenario != cell.scenario || *dispatcher_spec != cell.dispatcher ||
      *delta != cell.config_delta || *seed != cell.seed) {
    return Status::FailedPrecondition(
        "artifact '" + RunPath(cell.key) +
        "' does not match its cell (stale or foreign artifact)");
  }

  RunArtifact a;
  StatusOr<std::string> name = doc->GetString("dispatcher");
  if (!name.ok()) return name.status();
  a.dispatcher_name = std::move(name).value();

  struct DoubleField {
    const char* key;
    double RunArtifact::* field;
  };
  for (const DoubleField& f : {
           DoubleField{"wall_seconds", &RunArtifact::wall_seconds},
           DoubleField{"revenue", &RunArtifact::revenue},
           DoubleField{"service_rate", &RunArtifact::service_rate},
           DoubleField{"wait_mean_s", &RunArtifact::wait_mean_s},
           DoubleField{"idle_mean_s", &RunArtifact::idle_mean_s},
           DoubleField{"dispatch_ms_mean", &RunArtifact::dispatch_ms_mean},
           DoubleField{"build_ms_mean", &RunArtifact::build_ms_mean},
           DoubleField{"dispatch_ms_p50", &RunArtifact::dispatch_ms_p50},
           DoubleField{"dispatch_ms_p95", &RunArtifact::dispatch_ms_p95},
           DoubleField{"dispatch_ms_p99", &RunArtifact::dispatch_ms_p99},
       }) {
    StatusOr<double> v = doc->GetDouble(f.key);
    if (!v.ok()) return v.status();
    a.*(f.field) = *v;
  }
  struct IntField {
    const char* key;
    int64_t RunArtifact::* field;
  };
  for (const IntField& f : {
           IntField{"served", &RunArtifact::served},
           IntField{"reneged", &RunArtifact::reneged},
           IntField{"cancelled", &RunArtifact::cancelled},
           IntField{"total_orders", &RunArtifact::total_orders},
           IntField{"num_batches", &RunArtifact::num_batches},
       }) {
    StatusOr<int64_t> v = doc->GetInt64(f.key);
    if (!v.ok()) return v.status();
    a.*(f.field) = *v;
  }
  const JsonValue* hourly = doc->Find("hourly");
  if (hourly != nullptr) {
    if (!hourly->is_array()) {
      return Status::InvalidArgument("artifact '" + RunPath(cell.key) +
                                     "': 'hourly' is not an array");
    }
    a.hourly.reserve(hourly->array().size());
    for (const JsonValue& entry : hourly->array()) {
      HourlyRow row;
      StatusOr<int64_t> served = entry.GetInt64("served");
      if (!served.ok()) return served.status();
      row.served = *served;
      StatusOr<int64_t> reneged = entry.GetInt64("reneged");
      if (!reneged.ok()) return reneged.status();
      row.reneged = *reneged;
      StatusOr<int64_t> cancelled = entry.GetInt64("cancelled");
      if (!cancelled.ok()) return cancelled.status();
      row.cancelled = *cancelled;
      StatusOr<double> revenue = entry.GetDouble("revenue");
      if (!revenue.ok()) return revenue.status();
      row.revenue = *revenue;
      StatusOr<double> wait = entry.GetDouble("wait_seconds_sum");
      if (!wait.ok()) return wait.status();
      row.wait_seconds_sum = *wait;
      a.hourly.push_back(row);
    }
  }
  return a;
}

Status ArtifactStore::SaveSpec(const CampaignSpec& spec) const {
  std::ostringstream os;
  JsonWriter w(os);
  w.BeginObject();
  w.Key("name").String(spec.name);
  auto write_axis = [&w](const char* key,
                         const std::vector<std::string>& values) {
    w.Key(key).BeginArray();
    for (const std::string& v : values) w.String(v);
    w.EndArray();
  };
  write_axis("workloads", spec.workloads);
  write_axis("scenarios", spec.scenarios);
  write_axis("dispatchers", spec.dispatchers);
  w.Key("seeds").BeginArray();
  for (uint64_t s : spec.seeds) w.Number(s);
  w.EndArray();
  write_axis("config_deltas", spec.config_deltas);
  w.EndObject();
  os << "\n";
  return WriteFileAtomic(SpecPath(), os.str());
}

StatusOr<CampaignSpec> ArtifactStore::LoadSpec() const {
  StatusOr<JsonValue> doc = ReadJsonFile(SpecPath());
  if (!doc.ok()) return doc.status();
  StatusOr<std::string> name = doc->GetString("name");
  if (!name.ok()) return name.status();

  CampaignSpec spec;
  spec.name = std::move(name).value();
  auto read_axis = [&doc](const char* key,
                          std::vector<std::string>* out) -> Status {
    const JsonValue* axis = doc->Find(key);
    if (axis == nullptr || !axis->is_array()) {
      return Status::InvalidArgument(std::string("campaign spec: missing "
                                                 "axis array '") +
                                     key + "'");
    }
    for (const JsonValue& v : axis->array()) {
      if (!v.is_string()) {
        return Status::InvalidArgument(std::string("campaign spec: "
                                                   "non-string entry in '") +
                                       key + "'");
      }
      out->push_back(v.string_value());
    }
    return Status::OK();
  };
  MRVD_RETURN_NOT_OK(read_axis("workloads", &spec.workloads));
  MRVD_RETURN_NOT_OK(read_axis("scenarios", &spec.scenarios));
  MRVD_RETURN_NOT_OK(read_axis("dispatchers", &spec.dispatchers));
  MRVD_RETURN_NOT_OK(read_axis("config_deltas", &spec.config_deltas));
  const JsonValue* seeds = doc->Find("seeds");
  if (seeds == nullptr || !seeds->is_array()) {
    return Status::InvalidArgument(
        "campaign spec: missing axis array 'seeds'");
  }
  for (const JsonValue& v : seeds->array()) {
    StatusOr<uint64_t> seed = v.Uint64();
    if (!seed.ok()) return seed.status();
    spec.seeds.push_back(*seed);
  }
  return spec;
}

}  // namespace mrvd
