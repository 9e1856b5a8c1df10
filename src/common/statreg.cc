#include "common/statreg.hh"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/logging.hh"

namespace cdvm
{

namespace
{

/** Segment characters allowed by the naming convention. */
bool
validSegmentChar(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_';
}

void
validateName(const std::string &name)
{
    if (name.empty())
        cdvm_panic("stat name must not be empty");
    bool seg_empty = true;
    for (char c : name) {
        if (c == '.') {
            if (seg_empty)
                cdvm_panic("stat name '%s': empty path segment",
                           name.c_str());
            seg_empty = true;
        } else if (validSegmentChar(c)) {
            seg_empty = false;
        } else {
            cdvm_panic("stat name '%s': invalid character '%c' "
                       "(want [a-z0-9_.])",
                       name.c_str(), c);
        }
    }
    if (seg_empty)
        cdvm_panic("stat name '%s': trailing dot", name.c_str());
}

const char *
kindName(StatKind k)
{
    switch (k) {
      case StatKind::Scalar:
        return "scalar";
      case StatKind::Gauge:
        return "gauge";
      case StatKind::Running:
        return "running";
      case StatKind::Histogram:
        return "histogram";
    }
    return "?";
}

/** JSON number: integral values without a fraction, no NaN/inf. */
std::string
jsonNum(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    if (v == std::floor(v) && std::fabs(v) < 1e15) {
        std::snprintf(buf, sizeof(buf), "%.0f", v);
    } else {
        std::snprintf(buf, sizeof(buf), "%.10g", v);
    }
    return buf;
}

} // namespace

StatRegistry &
StatRegistry::global()
{
    static StatRegistry reg;
    return reg;
}

StatRegistry::Entry &
StatRegistry::findOrCreate(const std::string &name, StatKind kind,
                           const std::string &desc)
{
    auto it = entries.find(name);
    if (it != entries.end()) {
        if (it->second.kind != kind) {
            cdvm_panic("stat '%s' registered as %s, reused as %s",
                       name.c_str(), kindName(it->second.kind),
                       kindName(kind));
        }
        if (it->second.desc.empty() && !desc.empty())
            it->second.desc = desc;
        return it->second;
    }

    validateName(name);
    // A name may not be both a leaf and a group: reject "a.b" when
    // "a.b.c" exists and vice versa. The sorted map makes both checks
    // one lower_bound away.
    auto nb = entries.lower_bound(name);
    if (nb != entries.end() &&
        nb->first.size() > name.size() &&
        nb->first.compare(0, name.size(), name) == 0 &&
        nb->first[name.size()] == '.') {
        cdvm_panic("stat '%s' conflicts with existing group '%s'",
                   name.c_str(), nb->first.c_str());
    }
    for (std::size_t dot = name.find('.'); dot != std::string::npos;
         dot = name.find('.', dot + 1)) {
        if (entries.count(name.substr(0, dot))) {
            cdvm_panic("stat '%s' conflicts with existing leaf '%s'",
                       name.c_str(), name.substr(0, dot).c_str());
        }
    }

    Entry &e = entries[name];
    e.kind = kind;
    e.desc = desc;
    return e;
}

double &
StatRegistry::scalar(const std::string &name, const std::string &desc)
{
    return findOrCreate(name, StatKind::Scalar, desc).scalarVal;
}

void
StatRegistry::set(const std::string &name, double value,
                  const std::string &desc)
{
    scalar(name, desc) = value;
}

void
StatRegistry::add(const std::string &name, double delta,
                  const std::string &desc)
{
    scalar(name, desc) += delta;
}

void
StatRegistry::gauge(const std::string &name, std::function<double()> fn,
                    const std::string &desc)
{
    findOrCreate(name, StatKind::Gauge, desc).fn = std::move(fn);
}

RunningStat &
StatRegistry::running(const std::string &name, const std::string &desc)
{
    Entry &e = findOrCreate(name, StatKind::Running, desc);
    if (!e.run)
        e.run = std::make_unique<RunningStat>();
    return *e.run;
}

LogHistogram &
StatRegistry::histogram(const std::string &name, double base,
                        unsigned buckets, const std::string &desc)
{
    Entry &e = findOrCreate(name, StatKind::Histogram, desc);
    if (!e.hist)
        e.hist = std::make_unique<LogHistogram>(base, buckets);
    return *e.hist;
}

double
StatRegistry::value(const std::string &name) const
{
    auto it = entries.find(name);
    if (it == entries.end())
        return 0.0;
    const Entry &e = it->second;
    switch (e.kind) {
      case StatKind::Scalar:
        return e.scalarVal;
      case StatKind::Gauge:
        return e.fn ? e.fn() : 0.0;
      case StatKind::Running:
        return e.run ? e.run->mean() : 0.0;
      case StatKind::Histogram:
        return e.hist ? e.hist->totalWeight() : 0.0;
    }
    return 0.0;
}

bool
StatRegistry::has(const std::string &name) const
{
    return entries.count(name) != 0;
}

std::optional<StatKind>
StatRegistry::kind(const std::string &name) const
{
    auto it = entries.find(name);
    if (it == entries.end())
        return std::nullopt;
    return it->second.kind;
}

std::vector<std::string>
StatRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(entries.size());
    for (const auto &kv : entries)
        out.push_back(kv.first);
    return out;
}

std::string
StatRegistry::dumpTable() const
{
    std::ostringstream os;
    for (const auto &kv : entries) {
        const Entry &e = kv.second;
        os << kv.first << " ";
        switch (e.kind) {
          case StatKind::Scalar:
          case StatKind::Gauge:
            os << jsonNum(value(kv.first));
            break;
          case StatKind::Running:
            os << jsonNum(e.run ? e.run->mean() : 0.0) << " (n="
               << (e.run ? e.run->count() : 0) << ")";
            break;
          case StatKind::Histogram:
            os << jsonNum(e.hist ? e.hist->totalWeight() : 0.0)
               << " (total weight)";
            break;
        }
        if (!e.desc.empty())
            os << " # " << e.desc;
        os << "\n";
    }
    return os.str();
}

std::string
StatRegistry::dumpJson() const
{
    // Build the segment tree; registration already rejected
    // leaf/group conflicts.
    struct TreeNode
    {
        std::map<std::string, TreeNode> kids;
        const Entry *leaf = nullptr;
        const std::string *name = nullptr;
    };
    TreeNode root;
    for (const auto &kv : entries) {
        TreeNode *n = &root;
        const std::string &full = kv.first;
        std::size_t pos = 0;
        while (true) {
            std::size_t dot = full.find('.', pos);
            std::string seg = full.substr(
                pos, dot == std::string::npos ? dot : dot - pos);
            n = &n->kids[seg];
            if (dot == std::string::npos)
                break;
            pos = dot + 1;
        }
        n->leaf = &kv.second;
        n->name = &kv.first;
    }

    std::ostringstream os;
    auto emitLeaf = [&](const Entry &e, const std::string &full) {
        switch (e.kind) {
          case StatKind::Scalar:
          case StatKind::Gauge:
            os << jsonNum(e.kind == StatKind::Scalar
                              ? e.scalarVal
                              : (e.fn ? e.fn() : 0.0));
            break;
          case StatKind::Running: {
            const RunningStat rs = e.run ? *e.run : RunningStat{};
            os << "{\"count\": " << rs.count()
               << ", \"mean\": " << jsonNum(rs.mean())
               << ", \"min\": " << jsonNum(rs.min())
               << ", \"max\": " << jsonNum(rs.max())
               << ", \"stddev\": " << jsonNum(rs.stddev())
               << ", \"total\": " << jsonNum(rs.total()) << "}";
            break;
          }
          case StatKind::Histogram: {
            if (!e.hist) {
                os << "null";
                break;
            }
            const LogHistogram &h = *e.hist;
            os << "{\"total_weight\": " << jsonNum(h.totalWeight())
               << ", \"bucket_low\": [";
            for (unsigned k = 0; k < h.numBuckets(); ++k) {
                os << (k ? ", " : "") << h.bucketLow(k);
            }
            os << "], \"bucket_weight\": [";
            for (unsigned k = 0; k < h.numBuckets(); ++k) {
                os << (k ? ", " : "") << jsonNum(h.bucketWeight(k));
            }
            os << "], \"p50\": " << jsonNum(h.percentile(50))
               << ", \"p90\": " << jsonNum(h.percentile(90))
               << ", \"p95\": " << jsonNum(h.percentile(95))
               << ", \"p99\": " << jsonNum(h.percentile(99)) << "}";
            break;
          }
        }
        (void)full;
    };

    std::function<void(const TreeNode &, int)> emit =
        [&](const TreeNode &n, int depth) {
            os << "{";
            bool first = true;
            std::string pad(static_cast<std::size_t>(depth + 1) * 2,
                            ' ');
            for (const auto &kv : n.kids) {
                os << (first ? "\n" : ",\n") << pad << "\"" << kv.first
                   << "\": ";
                first = false;
                if (kv.second.leaf)
                    emitLeaf(*kv.second.leaf, *kv.second.name);
                else
                    emit(kv.second, depth + 1);
            }
            if (!first) {
                os << "\n"
                   << std::string(static_cast<std::size_t>(depth) * 2,
                                  ' ');
            }
            os << "}";
        };
    emit(root, 0);
    os << "\n";
    return os.str();
}

bool
StatRegistry::writeJson(const std::string &path) const
{
    return writeTextFile(path, dumpJson(), "stats");
}

void
StatRegistry::clear()
{
    entries.clear();
}

void
StatRegistry::merge(const StatRegistry &src, const std::string &prefix)
{
    const std::string pfx = prefix.empty() ? "" : prefix + ".";
    for (const auto &kv : src.entries) {
        const std::string name = pfx + kv.first;
        const Entry &e = kv.second;
        switch (e.kind) {
          case StatKind::Scalar:
            set(name, e.scalarVal, e.desc);
            break;
          case StatKind::Gauge:
            // Freeze: the source's callback may dangle after merge.
            set(name, e.fn ? e.fn() : 0.0, e.desc);
            break;
          case StatKind::Running:
            running(name, e.desc) = e.run ? *e.run : RunningStat{};
            break;
          case StatKind::Histogram: {
            const double base = e.hist ? e.hist->logBase() : 10.0;
            const unsigned nb = e.hist ? e.hist->numBuckets() : 10u;
            LogHistogram &dst = histogram(name, base, nb, e.desc);
            if (e.hist)
                dst = *e.hist;
            break;
          }
        }
    }
}

void
SnapshotSeries::take(const StatRegistry &reg, u64 clock)
{
    Row row;
    row.clock = clock;
    for (const std::string &name : reg.names()) {
        std::optional<StatKind> k = reg.kind(name);
        if (k != StatKind::Scalar && k != StatKind::Gauge)
            continue;
        row.values.emplace(name, reg.value(name));
    }
    series.push_back(std::move(row));
}

double
SnapshotSeries::at(std::size_t row, const std::string &name) const
{
    const Row &r = series.at(row);
    auto it = r.values.find(name);
    return it == r.values.end() ? 0.0 : it->second;
}

std::string
SnapshotSeries::dumpJson() const
{
    // Union of names over all rows (later rows may add stats).
    std::map<std::string, bool> names;
    for (const Row &r : series)
        for (const auto &kv : r.values)
            names.emplace(kv.first, true);

    std::ostringstream os;
    os << "{\n  \"rows\": " << series.size() << ",\n  \"clock\": [";
    for (std::size_t i = 0; i < series.size(); ++i)
        os << (i ? ", " : "") << series[i].clock;
    os << "],\n  \"stats\": {";
    bool first = true;
    for (const auto &nk : names) {
        os << (first ? "\n" : ",\n") << "    \"" << nk.first
           << "\": {\"values\": [";
        first = false;
        for (std::size_t i = 0; i < series.size(); ++i)
            os << (i ? ", " : "") << jsonNum(at(i, nk.first));
        os << "], \"deltas\": [";
        for (std::size_t i = 0; i < series.size(); ++i)
            os << (i ? ", " : "") << jsonNum(delta(i, nk.first));
        os << "]}";
    }
    if (!first)
        os << "\n  ";
    os << "}\n}\n";
    return os.str();
}

bool
SnapshotSeries::writeJson(const std::string &path) const
{
    return writeTextFile(path, dumpJson(), "snapshot");
}

} // namespace cdvm
