// Minimal streaming JSON writer for the benchmark's one-object output.
// Commas are inserted automatically; keys are plain ASCII identifiers
// chosen by the harness, so only string values need escaping.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace coicbench {

class JsonWriter {
 public:
  JsonWriter& BeginObject() { Open('{'); return *this; }
  JsonWriter& EndObject() { Close('}'); return *this; }
  JsonWriter& BeginArray() { Open('['); return *this; }
  JsonWriter& EndArray() { Close(']'); return *this; }

  JsonWriter& Key(std::string_view key) {
    Comma();
    AppendString(key);
    out_ += ':';
    after_key_ = true;
    return *this;
  }
  JsonWriter& Num(double v) {
    Comma();
    if (!std::isfinite(v)) {
      out_ += "null";
      return *this;
    }
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out_ += buf;
    return *this;
  }
  JsonWriter& Int(std::uint64_t v) {
    Comma();
    out_ += std::to_string(v);
    return *this;
  }
  JsonWriter& Str(std::string_view v) {
    Comma();
    AppendString(v);
    return *this;
  }
  JsonWriter& NumArray(const std::vector<double>& values) {
    BeginArray();
    for (double v : values) Num(v);
    return EndArray();
  }

  // Key/value shorthands.
  JsonWriter& Field(std::string_view k, double v) { return Key(k).Num(v); }
  JsonWriter& FieldInt(std::string_view k, std::uint64_t v) {
    return Key(k).Int(v);
  }
  JsonWriter& FieldStr(std::string_view k, std::string_view v) {
    return Key(k).Str(v);
  }

  [[nodiscard]] const std::string& str() const noexcept { return out_; }

 private:
  void Comma() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (!first_.empty() && !first_.back()) out_ += ',';
    if (!first_.empty()) first_.back() = false;
  }
  void Open(char c) {
    Comma();
    out_ += c;
    first_.push_back(true);
  }
  void Close(char c) {
    out_ += c;
    first_.pop_back();
  }
  void AppendString(std::string_view s) {
    out_ += '"';
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out_ += '\\';
        out_ += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out_ += buf;
      } else {
        out_ += c;
      }
    }
    out_ += '"';
  }

  std::string out_;
  std::vector<bool> first_;
  bool after_key_ = false;
};

}  // namespace coicbench
