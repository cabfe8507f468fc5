#include "report/metrics_report.hpp"

#include <iomanip>
#include <sstream>

#include "report/json_util.hpp"

namespace nocsched::report {

namespace {

/// Prometheus metric name: dots and dashes become underscores, and
/// everything gets the tool prefix.
std::string prom_name(const std::string& name) {
  std::string out = "nocsched_";
  for (const char c : name) {
    out.push_back((c == '.' || c == '-') ? '_' : c);
  }
  return out;
}

std::string wall_value(double ms) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(3) << ms;
  return out.str();
}

}  // namespace

std::string metrics_table(const obs::MetricsSnapshot& snap) {
  std::ostringstream out;
  out << "metrics: " << snap.counters.size() << " counters, " << snap.gauges.size()
      << " gauges, " << snap.histograms.size() << " histograms\n";
  for (const auto& [name, value] : snap.counters) {
    out << "  counter    " << std::left << std::setw(36) << name << " " << value << "\n";
  }
  for (const auto& [name, value] : snap.gauges) {
    out << "  gauge      " << std::left << std::setw(36) << name << " " << value << "\n";
  }
  for (const auto& [name, h] : snap.histograms) {
    out << "  histogram  " << std::left << std::setw(36) << name << " count " << h.count
        << ", sum " << h.sum << "\n";
    for (std::size_t b = 0; b < h.counts.size(); ++b) {
      out << "             le ";
      if (b < h.bounds.size()) {
        out << std::left << std::setw(12) << h.bounds[b];
      } else {
        out << std::left << std::setw(12) << "+inf";
      }
      out << " " << h.counts[b] << "\n";
    }
  }
  for (const auto& [name, value] : snap.info) {
    out << "  info       " << std::left << std::setw(36) << name << " " << value << "\n";
  }
  for (const auto& [name, ms] : snap.wall) {
    out << "  wall       " << std::left << std::setw(36) << name << " " << wall_value(ms)
        << " ms\n";
  }
  return out.str();
}

std::string metrics_csv(const obs::MetricsSnapshot& snap) {
  std::ostringstream out;
  out << "kind,name,field,value\n";
  for (const auto& [name, value] : snap.counters) {
    out << "counter," << name << ",value," << value << "\n";
  }
  for (const auto& [name, value] : snap.gauges) {
    out << "gauge," << name << ",value," << value << "\n";
  }
  for (const auto& [name, h] : snap.histograms) {
    out << "histogram," << name << ",count," << h.count << "\n";
    out << "histogram," << name << ",sum," << h.sum << "\n";
    for (std::size_t b = 0; b < h.counts.size(); ++b) {
      out << "histogram," << name << ",le_";
      if (b < h.bounds.size()) {
        out << h.bounds[b];
      } else {
        out << "inf";
      }
      out << "," << h.counts[b] << "\n";
    }
  }
  for (const auto& [name, value] : snap.info) {
    out << "info," << name << ",value," << value << "\n";
  }
  for (const auto& [name, ms] : snap.wall) {
    out << "wall," << name << ",ms," << wall_value(ms) << "\n";
  }
  return out.str();
}

std::string metrics_json(const obs::MetricsSnapshot& snap) {
  JsonWriter doc(JsonWriter::Layout::kDocument);
  doc.object("counters", [&](JsonWriter& o) {
    for (const auto& [name, value] : snap.counters) o.add(name, value);
  });
  doc.object("gauges", [&](JsonWriter& o) {
    for (const auto& [name, value] : snap.gauges) o.add(name, value);
  });
  doc.object("histograms", [&](JsonWriter& o) {
    for (const auto& [name, h] : snap.histograms) {
      o.object(name, [&](JsonWriter& hist) {
        hist.add("bounds", h.bounds)
            .add("counts", h.counts)
            .add("count", h.count)
            .add("sum", h.sum);
      });
    }
  });
  doc.object("info", [&](JsonWriter& o) {
    for (const auto& [name, value] : snap.info) o.add(name, value);
  });
  doc.object("wall", [&](JsonWriter& o) {
    for (const auto& [name, ms] : snap.wall) o.add_raw(name, wall_value(ms));
  });
  return doc.finish();
}

std::string metrics_prometheus(const obs::MetricsSnapshot& snap) {
  std::ostringstream out;
  for (const auto& [name, value] : snap.counters) {
    const std::string p = prom_name(name);
    out << "# TYPE " << p << " counter\n" << p << " " << value << "\n";
  }
  for (const auto& [name, value] : snap.gauges) {
    const std::string p = prom_name(name);
    out << "# TYPE " << p << " gauge\n" << p << " " << value << "\n";
  }
  for (const auto& [name, h] : snap.histograms) {
    const std::string p = prom_name(name);
    out << "# TYPE " << p << " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < h.counts.size(); ++b) {
      cumulative += h.counts[b];
      out << p << "_bucket{le=\"";
      if (b < h.bounds.size()) {
        out << h.bounds[b];
      } else {
        out << "+Inf";
      }
      out << "\"} " << cumulative << "\n";
    }
    out << p << "_sum " << h.sum << "\n" << p << "_count " << h.count << "\n";
  }
  for (const auto& [name, value] : snap.info) {
    const std::string p = prom_name(name) + "_info";
    out << "# TYPE " << p << " gauge\n"
        << p << "{value=" << json_string(value) << "} 1\n";
  }
  for (const auto& [name, ms] : snap.wall) {
    const std::string p = prom_name(name) + "_ms";
    out << "# TYPE " << p << " gauge\n" << p << " " << wall_value(ms) << "\n";
  }
  return out.str();
}

}  // namespace nocsched::report
