#include "workload/order_stream.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace mrvd {

namespace {

// ---------------------------------------------------------------------
// Little-endian field codecs (the static_assert in the header guarantees
// host order == disk order, so these are straight memcpys the compiler
// folds into unaligned loads/stores).

void PutU32(unsigned char* p, uint32_t v) { std::memcpy(p, &v, 4); }
void PutI64(unsigned char* p, int64_t v) { std::memcpy(p, &v, 8); }
void PutF64(unsigned char* p, double v) { std::memcpy(p, &v, 8); }
uint32_t GetU32(const unsigned char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
int64_t GetI64(const unsigned char* p) {
  int64_t v;
  std::memcpy(&v, p, 8);
  return v;
}
double GetF64(const unsigned char* p) {
  double v;
  std::memcpy(&v, p, 8);
  return v;
}

// Header layout (64 bytes):
//   [0]  magic[8]
//   [8]  u32 version
//   [12] u32 header_bytes (= 64; lets future versions grow the header)
//   [16] i64 driver_count
//   [24] i64 order_count
//   [32] f64 horizon_seconds
//   [40] f64 first_request_time
//   [48] f64 last_request_time
//   [56] u64 reserved (0)

void EncodeHeader(unsigned char* p, const OrderTraceInfo& info) {
  std::memcpy(p, kOrderTraceMagic, 8);
  PutU32(p + 8, info.version);
  PutU32(p + 12, static_cast<uint32_t>(kOrderTraceHeaderBytes));
  PutI64(p + 16, info.driver_count);
  PutI64(p + 24, info.order_count);
  PutF64(p + 32, info.horizon_seconds);
  PutF64(p + 40, info.first_request_time);
  PutF64(p + 48, info.last_request_time);
  PutI64(p + 56, 0);
}

void EncodeDriver(unsigned char* p, const DriverSpec& d) {
  PutI64(p + 0, d.id);
  PutF64(p + 8, d.origin.lat);
  PutF64(p + 16, d.origin.lon);
  PutF64(p + 24, d.join_time);
}

DriverSpec DecodeDriver(const unsigned char* p) {
  DriverSpec d;
  d.id = GetI64(p + 0);
  d.origin.lat = GetF64(p + 8);
  d.origin.lon = GetF64(p + 16);
  d.join_time = GetF64(p + 24);
  return d;
}

void EncodeOrder(unsigned char* p, const Order& o) {
  PutI64(p + 0, o.id);
  PutF64(p + 8, o.request_time);
  PutF64(p + 16, o.pickup.lat);
  PutF64(p + 24, o.pickup.lon);
  PutF64(p + 32, o.dropoff.lat);
  PutF64(p + 40, o.dropoff.lon);
  PutF64(p + 48, o.pickup_deadline);
}

void DecodeOrder(const unsigned char* p, Order* o) {
  o->id = GetI64(p + 0);
  o->request_time = GetF64(p + 8);
  o->pickup.lat = GetF64(p + 16);
  o->pickup.lon = GetF64(p + 24);
  o->dropoff.lat = GetF64(p + 32);
  o->dropoff.lon = GetF64(p + 40);
  o->pickup_deadline = GetF64(p + 48);
}

int64_t ExpectedFileBytes(int64_t driver_count, int64_t order_count) {
  return static_cast<int64_t>(kOrderTraceHeaderBytes) +
         driver_count * static_cast<int64_t>(kDriverRecordBytes) +
         order_count * static_cast<int64_t>(kOrderRecordBytes);
}

}  // namespace

// ---------------------------------------------------------------------
// OrderStreamWriter

OrderStreamWriter::OrderStreamWriter(std::FILE* file, std::string path,
                                     std::string tmp_path,
                                     double horizon_seconds)
    : file_(file),
      path_(std::move(path)),
      tmp_path_(std::move(tmp_path)),
      horizon_seconds_(horizon_seconds) {}

StatusOr<std::unique_ptr<OrderStreamWriter>> OrderStreamWriter::Create(
    const std::string& path, double horizon_seconds) {
  std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) {
    return IoErrorFromErrno("could not open '" + tmp + "' for writing");
  }
  // Placeholder header; Finish() backpatches the real counts and span. A
  // reader opening the temp file mid-write sees order_count = -1, which
  // fails validation — only the rename publishes a readable trace.
  unsigned char header[kOrderTraceHeaderBytes];
  OrderTraceInfo placeholder;
  placeholder.driver_count = -1;
  placeholder.order_count = -1;
  EncodeHeader(header, placeholder);
  if (std::fwrite(header, 1, sizeof(header), file) != sizeof(header)) {
    Status st = IoErrorFromErrno("could not write '" + tmp + "'");
    std::fclose(file);
    std::remove(tmp.c_str());
    return st;
  }
  return std::unique_ptr<OrderStreamWriter>(
      // mrvd-lint: allow(naked-new) — private ctor, make_unique can't reach it;
      // the result is owned by the unique_ptr on the surrounding line
      new OrderStreamWriter(file, path, std::move(tmp), horizon_seconds));
}

OrderStreamWriter::~OrderStreamWriter() {
  if (file_ != nullptr) {  // abandoned before Finish(): leave nothing behind
    std::fclose(file_);
    std::remove(tmp_path_.c_str());
  }
}

Status OrderStreamWriter::AddDriver(const DriverSpec& driver) {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("order-trace writer for '" + path_ +
                                      "' is already finished");
  }
  if (orders_written_ > 0) {
    return Status::FailedPrecondition(
        "drivers must be written before orders (the driver section "
        "precedes the order section in '" + path_ + "')");
  }
  unsigned char rec[kDriverRecordBytes];
  EncodeDriver(rec, driver);
  if (std::fwrite(rec, 1, sizeof(rec), file_) != sizeof(rec)) {
    return IoErrorFromErrno("could not write driver record to '" +
                            tmp_path_ + "'");
  }
  ++drivers_written_;
  return Status::OK();
}

Status OrderStreamWriter::AddOrder(const Order& order) {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("order-trace writer for '" + path_ +
                                      "' is already finished");
  }
  if (!(order.request_time >= (orders_written_ == 0 ? -1e300
                                                    : last_request_))) {
    return Status::InvalidArgument(
        "orders must be appended in non-decreasing request-time order: "
        "order " + std::to_string(order.id) + " at t=" +
        std::to_string(order.request_time) + " after t=" +
        std::to_string(last_request_));
  }
  unsigned char rec[kOrderRecordBytes];
  EncodeOrder(rec, order);
  if (std::fwrite(rec, 1, sizeof(rec), file_) != sizeof(rec)) {
    return IoErrorFromErrno("could not write order record to '" +
                            tmp_path_ + "'");
  }
  if (orders_written_ == 0) first_request_ = order.request_time;
  last_request_ = order.request_time;
  ++orders_written_;
  return Status::OK();
}

Status OrderStreamWriter::Finish() {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("order-trace writer for '" + path_ +
                                      "' is already finished");
  }
  OrderTraceInfo info;
  info.driver_count = drivers_written_;
  info.order_count = orders_written_;
  info.horizon_seconds = horizon_seconds_ > 0.0
                             ? horizon_seconds_
                             : last_request_ + 1200.0;
  info.first_request_time = first_request_;
  info.last_request_time = last_request_;
  unsigned char header[kOrderTraceHeaderBytes];
  EncodeHeader(header, info);

  std::FILE* file = file_;
  file_ = nullptr;  // the writer is spent whatever happens next
  Status st = Status::OK();
  if (std::fseek(file, 0, SEEK_SET) != 0 ||
      std::fwrite(header, 1, sizeof(header), file) != sizeof(header)) {
    st = IoErrorFromErrno("could not backpatch the header of '" +
                          tmp_path_ + "'");
  }
  if (st.ok() && std::fclose(file) != 0) {
    st = IoErrorFromErrno("could not flush '" + tmp_path_ + "'");
  } else if (!st.ok()) {
    std::fclose(file);
  }
  if (st.ok() && std::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
    st = IoErrorFromErrno("could not rename '" + tmp_path_ + "' to '" +
                          path_ + "'");
  }
  if (!st.ok()) std::remove(tmp_path_.c_str());
  return st;
}

// ---------------------------------------------------------------------
// OrderStreamReader

OrderStreamReader::OrderStreamReader(std::FILE* file, std::string path,
                                     size_t buffer_bytes)
    : file_(file), path_(std::move(path)) {
  buffer_.resize(std::max<size_t>(buffer_bytes, 1));
}

OrderStreamReader::~OrderStreamReader() {
  if (file_ != nullptr) std::fclose(file_);
}

StatusOr<std::unique_ptr<OrderStreamReader>> OrderStreamReader::Open(
    const std::string& path, size_t buffer_bytes) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return IoErrorFromErrno("could not open order trace '" + path + "'");
  }
  std::unique_ptr<OrderStreamReader> reader(
      // mrvd-lint: allow(naked-new) — private ctor, make_unique can't reach it;
      // the result is owned by the unique_ptr on the surrounding line
      new OrderStreamReader(file, path, buffer_bytes));

  unsigned char header[kOrderTraceHeaderBytes];
  if (std::fread(header, 1, sizeof(header), file) != sizeof(header)) {
    return Status::IoError("'" + path + "' is too short to be an order "
                           "trace (no complete " +
                           std::to_string(kOrderTraceHeaderBytes) +
                           "-byte header)");
  }
  if (std::memcmp(header, kOrderTraceMagic, 8) != 0) {
    return Status::InvalidArgument(
        "'" + path + "' is not an order trace (bad magic); convert CSVs "
        "with tlc_to_trace first");
  }
  OrderTraceInfo& info = reader->info_;
  info.version = GetU32(header + 8);
  if (info.version != kOrderTraceVersion) {
    return Status::InvalidArgument(
        "order trace '" + path + "' has format version " +
        std::to_string(info.version) + "; this build reads version " +
        std::to_string(kOrderTraceVersion) + " — re-run the converter");
  }
  const uint32_t header_bytes = GetU32(header + 12);
  if (header_bytes != kOrderTraceHeaderBytes) {
    return Status::InvalidArgument(
        "order trace '" + path + "' declares a " +
        std::to_string(header_bytes) + "-byte header (expected " +
        std::to_string(kOrderTraceHeaderBytes) + "); the file is corrupt");
  }
  info.driver_count = GetI64(header + 16);
  info.order_count = GetI64(header + 24);
  info.horizon_seconds = GetF64(header + 32);
  info.first_request_time = GetF64(header + 40);
  info.last_request_time = GetF64(header + 48);
  if (info.driver_count < 0 || info.order_count < 0) {
    return Status::InvalidArgument(
        "order trace '" + path + "' has negative record counts (" +
        std::to_string(info.driver_count) + " drivers, " +
        std::to_string(info.order_count) +
        " orders); the header was never finalised or is corrupt");
  }

  // The expected length is a pure function of the header; verify it now so
  // truncation is an actionable open-time error, not an EOF mid-run.
  if (std::fseek(file, 0, SEEK_END) != 0) {
    return IoErrorFromErrno("could not seek '" + path + "'");
  }
  const int64_t actual = static_cast<int64_t>(std::ftell(file));
  const int64_t expected =
      ExpectedFileBytes(info.driver_count, info.order_count);
  if (actual < expected) {
    const int64_t missing_bytes = expected - actual;
    return Status::IoError(
        "order trace '" + path + "' is truncated: header promises " +
        std::to_string(expected) + " bytes (" +
        std::to_string(info.driver_count) + " drivers + " +
        std::to_string(info.order_count) + " orders) but the file has " +
        std::to_string(actual) + " — " + std::to_string(missing_bytes) +
        " bytes (~" +
        std::to_string((missing_bytes + kOrderRecordBytes - 1) /
                       kOrderRecordBytes) +
        " order records) are missing");
  }
  if (actual > expected) {
    return Status::InvalidArgument(
        "order trace '" + path + "' has " +
        std::to_string(actual - expected) +
        " trailing bytes beyond the " + std::to_string(expected) +
        " the header promises; the file is corrupt");
  }
  info.file_bytes = actual;

  // Driver section: materialised eagerly (it is tiny next to the orders).
  if (std::fseek(file, static_cast<long>(kOrderTraceHeaderBytes),
                 SEEK_SET) != 0) {
    return IoErrorFromErrno("could not seek '" + path + "'");
  }
  reader->drivers_.reserve(static_cast<size_t>(info.driver_count));
  unsigned char rec[kDriverRecordBytes];
  for (int64_t j = 0; j < info.driver_count; ++j) {
    if (std::fread(rec, 1, sizeof(rec), file) != sizeof(rec)) {
      return IoErrorFromErrno("could not read driver record " +
                              std::to_string(j) + " of '" + path + "'");
    }
    reader->drivers_.push_back(DecodeDriver(rec));
  }
  reader->orders_offset_ =
      static_cast<int64_t>(kOrderTraceHeaderBytes) +
      info.driver_count * static_cast<int64_t>(kDriverRecordBytes);
  return reader;
}

bool OrderStreamReader::ReadRecord(unsigned char* out) {
  size_t got = 0;
  while (got < kOrderRecordBytes) {
    if (buf_pos_ == buf_end_) {  // refill on drain
      const size_t n = std::fread(buffer_.data(), 1, buffer_.size(), file_);
      if (n == 0) {
        // Open() verified the length, so this means the file shrank (or an
        // I/O error hit) underneath us.
        status_ = std::ferror(file_) != 0
                      ? IoErrorFromErrno("read error in order trace '" +
                                         path_ + "'")
                      : Status::IoError(
                            "order trace '" + path_ +
                            "' ended early at order record " +
                            std::to_string(consumed_) + " of " +
                            std::to_string(info_.order_count) +
                            "; the file changed since it was opened");
        return false;
      }
      buf_pos_ = 0;
      buf_end_ = n;
    }
    const size_t take =
        std::min(kOrderRecordBytes - got, buf_end_ - buf_pos_);
    std::memcpy(out + got, buffer_.data() + buf_pos_, take);
    buf_pos_ += take;
    got += take;
  }
  return true;
}

const Order* OrderStreamReader::Peek() {
  if (current_valid_) return &current_;
  if (!status_.ok() || consumed_ >= info_.order_count) return nullptr;
  unsigned char rec[kOrderRecordBytes];
  if (!ReadRecord(rec)) return nullptr;
  DecodeOrder(rec, &current_);
  if (consumed_ > 0 && !(current_.request_time >= prev_request_)) {
    status_ = Status::InvalidArgument(
        "order trace '" + path_ + "' is not sorted by request time: "
        "record " + std::to_string(consumed_) + " has t=" +
        std::to_string(current_.request_time) + " after t=" +
        std::to_string(prev_request_) +
        " (NaN or out of order); the file is corrupt");
    return nullptr;
  }
  current_valid_ = true;
  return &current_;
}

void OrderStreamReader::Pop() {
  if (!current_valid_) return;
  prev_request_ = current_.request_time;
  current_valid_ = false;
  ++consumed_;
}

Status OrderStreamReader::Rewind() {
  std::clearerr(file_);
  if (std::fseek(file_, static_cast<long>(orders_offset_), SEEK_SET) != 0) {
    return IoErrorFromErrno("could not rewind order trace '" + path_ + "'");
  }
  buf_pos_ = buf_end_ = 0;
  current_valid_ = false;
  consumed_ = 0;
  prev_request_ = 0.0;
  status_ = Status::OK();
  return Status::OK();
}

// ---------------------------------------------------------------------
// Whole-trace helpers

Status WriteOrderTrace(const std::string& path, const Workload& workload) {
  StatusOr<std::unique_ptr<OrderStreamWriter>> writer =
      OrderStreamWriter::Create(path, workload.horizon_seconds);
  if (!writer.ok()) return writer.status();
  for (const DriverSpec& d : workload.drivers) {
    MRVD_RETURN_NOT_OK((*writer)->AddDriver(d));
  }
  for (const Order& o : workload.orders) {
    MRVD_RETURN_NOT_OK((*writer)->AddOrder(o));
  }
  return (*writer)->Finish();
}

StatusOr<Workload> ReadOrderTrace(const std::string& path,
                                  int64_t max_orders) {
  StatusOr<std::unique_ptr<OrderStreamReader>> reader =
      OrderStreamReader::Open(path);
  if (!reader.ok()) return reader.status();
  Workload workload;
  workload.drivers = (*reader)->drivers();
  workload.horizon_seconds = (*reader)->info().horizon_seconds;
  int64_t keep = (*reader)->info().order_count;
  if (max_orders > 0) keep = std::min(keep, max_orders);
  workload.orders.reserve(static_cast<size_t>(keep));
  while (static_cast<int64_t>(workload.orders.size()) < keep) {
    const Order* o = (*reader)->Peek();
    if (o == nullptr) break;
    workload.orders.push_back(*o);
    (*reader)->Pop();
  }
  MRVD_RETURN_NOT_OK((*reader)->status());
  return workload;
}

StatusOr<OrderTraceInfo> ReadOrderTraceInfo(const std::string& path) {
  // Open() with the minimum buffer: header + drivers only are read, and
  // nothing survives past the return.
  StatusOr<std::unique_ptr<OrderStreamReader>> reader =
      OrderStreamReader::Open(path, /*buffer_bytes=*/1);
  if (!reader.ok()) return reader.status();
  return (*reader)->info();
}

Status ConvertTlcCsvToTrace(const std::string& csv_path,
                            const std::string& trace_path, int num_drivers,
                            const TlcParseOptions& options,
                            TlcParseStats* stats) {
  // ParseTlcCsv consumes the CSV row by row (line-buffered); memory is
  // O(kept records), never O(file text) — the sort by request time that
  // the trace format requires needs the kept records in one place anyway.
  StatusOr<Workload> workload = ParseTlcCsv(csv_path, num_drivers, options,
                                            stats);
  if (!workload.ok()) return workload.status();
  return WriteOrderTrace(trace_path, *workload);
}

}  // namespace mrvd
