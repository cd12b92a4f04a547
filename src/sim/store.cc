#include "sim/store.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/env.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "common/whole_file.hh"
#include "sim/json.hh"

namespace eole {

std::string
storeKeyText(const StoreKey &key)
{
    std::ostringstream os;
    os << "eole-store-key-v1\n";
    os << "kind = " << key.kind << "\n";
    os << "config = " << key.config << "\n";
    os << "workload = " << key.workload << "\n";
    os << "seed = " << key.seed << "\n";
    os << "warmup = " << key.warmup << "\n";
    os << "measure = " << key.measure << "\n";
    os << "sample = " << sampleSpecString(key.sample) << "\n";
    os << "index = " << key.index << "\n";
    os << "params = " << key.params.size() << "\n";
    for (const auto &[k, v] : key.params)
        os << "p " << k << " = " << v << "\n";
    os << "end\n";
    return os.str();
}

std::string
storeKeyHash(const StoreKey &key)
{
    return sha256Hex(storeKeyText(key));
}

std::string
cellPayloadText(const StatRecord &stats)
{
    std::ostringstream os;
    os << "eole-store-cell-v1\n";
    os << "stats = " << stats.all().size() << "\n";
    for (const auto &[name, value] : stats.all())
        os << "s " << name << " = " << jsonNumberText(value) << "\n";
    os << "end\n";
    return os.str();
}

bool
tryParseCellPayload(const std::string &text, StatRecord *out,
                    std::string *err)
{
    std::istringstream is(text);
    std::string line;
    int lineno = 0;
    const auto fail = [&](const std::string &msg) {
        *err = "cell payload line " + std::to_string(lineno) + ": "
            + msg;
        return false;
    };
    const auto next = [&](const char *what) {
        if (!std::getline(is, line))
            return fail(std::string("truncated: expected ") + what);
        ++lineno;
        return true;
    };

    if (!next("schema"))
        return false;
    if (line != "eole-store-cell-v1")
        return fail("unsupported payload schema \"" + line + "\"");
    if (!next("stats count"))
        return false;
    std::uint64_t count = 0;
    if (line.rfind("stats = ", 0) != 0
        || !parseU64Strict(line.substr(8), &count) || count > 100000) {
        return fail("bad stats count \"" + line + "\"");
    }

    StatRecord stats;
    for (std::uint64_t i = 0; i < count; ++i) {
        if (!next("stat line"))
            return false;
        // "s <name> = <value>"
        if (line.rfind("s ", 0) != 0)
            return fail("expected \"s <name> = <value>\", got \"" + line
                        + "\"");
        const std::size_t eq = line.find(" = ", 2);
        if (eq == std::string::npos || eq == 2)
            return fail("expected \"s <name> = <value>\", got \"" + line
                        + "\"");
        const std::string name = line.substr(2, eq - 2);
        const std::string valueText = line.substr(eq + 3);
        char *end = nullptr;
        const double value = std::strtod(valueText.c_str(), &end);
        if (end == valueText.c_str() || *end != '\0')
            return fail("bad stat value \"" + valueText + "\"");
        stats.add(name, value);
    }
    if (!next("end marker"))
        return false;
    if (line != "end")
        return fail("expected \"end\", got \"" + line + "\"");
    *out = stats;
    return true;
}

Store::Store(const std::string &dir_) : dir(dir_)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(dir + "/objects", ec);
    fatal_if(ec, "store %s: cannot create layout: %s", dir.c_str(),
             ec.message().c_str());

    std::ifstream is(dir + "/index");
    if (!is)
        return;  // fresh store
    std::string line;
    int lineno = 0;
    const auto die = [&](const char *msg) {
        fatal("store %s/index line %d: %s (delete the store directory "
              "to rebuild it)", dir.c_str(), lineno, msg);
    };
    if (!std::getline(is, line))
        die("empty index");
    ++lineno;
    {
        std::istringstream head(line);
        std::string schema, tick;
        head >> schema >> tick;
        if (schema != "eole-store-v1")
            die("unsupported store schema");
        if (!parseU64Strict(tick, &nextTick) || nextTick == 0)
            die("bad tick counter");
    }
    while (std::getline(is, line)) {
        ++lineno;
        if (line.empty())
            continue;
        Entry e;
        std::istringstream fields(line);
        std::string bytes, tick;
        if (!(fields >> e.hash >> e.kind >> bytes >> tick >> e.workload))
            die("short entry");
        if (e.hash.size() != 64
            || !parseU64Strict(bytes, &e.bytes)
            || !parseU64Strict(tick, &e.tick))
            die("malformed entry");
        // The config name is the rest of the line (axis-derived names
        // embed '=' but never a newline).
        std::getline(fields >> std::ws, e.config);
        index.push_back(std::move(e));
    }
}

Store::~Store()
{
    flush();
}

std::string
Store::objectPath(const std::string &hash) const
{
    return dir + "/objects/" + hash;
}

bool
Store::contains(const std::string &hash) const
{
    for (const Entry &e : index) {
        if (e.hash == hash)
            return std::filesystem::exists(objectPath(hash));
    }
    return false;
}

bool
Store::get(const std::string &hash, std::string *payload)
{
    Entry *entry = nullptr;
    for (Entry &e : index) {
        if (e.hash == hash) {
            entry = &e;
            break;
        }
    }
    if (!entry)
        return false;

    std::ifstream is(objectPath(hash), std::ios::binary);
    if (!is)
        return false;  // object vanished: a miss, not an error
    // Skip the self-describing key document: scan for the payload
    // separator, then take exactly the advertised byte count.
    std::string line;
    std::uint64_t bytes = ~0ULL;
    while (std::getline(is, line)) {
        if (line.rfind("payload ", 0) == 0) {
            fatal_if(!parseU64Strict(line.substr(8), &bytes),
                     "store %s: object %s: bad payload size",
                     dir.c_str(), hash.c_str());
            break;
        }
    }
    fatal_if(bytes == ~0ULL,
             "store %s: object %s: missing payload separator",
             dir.c_str(), hash.c_str());
    // Plausibility bound before allocating: a corrupted size field
    // must be a diagnostic, not a 16-exabyte allocation.
    fatal_if(bytes > (1ULL << 32),
             "store %s: object %s: implausible payload size %llu",
             dir.c_str(), hash.c_str(), (unsigned long long)bytes);
    std::string data(bytes, '\0');
    is.read(data.data(), static_cast<std::streamsize>(bytes));
    fatal_if(static_cast<std::uint64_t>(is.gcount()) != bytes,
             "store %s: object %s: truncated payload", dir.c_str(),
             hash.c_str());

    entry->tick = nextTick++;
    dirty = true;
    *payload = std::move(data);
    return true;
}

void
Store::put(const StoreKey &key, const std::string &payload)
{
    const std::string text = storeKeyText(key);
    const std::string hash = sha256Hex(text);

    // The key document, the payload separator, then the payload.
    const std::string head =
        text + "payload " + std::to_string(payload.size()) + "\n";
    const auto writeObject = [&](std::FILE *f) {
        return std::fwrite(head.data(), 1, head.size(), f) == head.size()
            && std::fwrite(payload.data(), 1, payload.size(), f)
                   == payload.size();
    };
    std::string err;
    fatal_if(!writeWholeFile(objectPath(hash), writeObject, &err),
             "store %s: cannot write object %s: %s", dir.c_str(),
             hash.c_str(), err.c_str());

    for (Entry &e : index) {
        if (e.hash == hash) {
            e.bytes = payload.size();
            e.tick = nextTick++;
            dirty = true;
            return;
        }
    }
    Entry e;
    e.hash = hash;
    e.kind = key.kind;
    e.bytes = payload.size();
    e.tick = nextTick++;
    e.workload = key.workload;
    e.config = key.config;
    index.push_back(std::move(e));
    dirty = true;
}

std::uint64_t
Store::totalPayloadBytes() const
{
    std::uint64_t total = 0;
    for (const Entry &e : index)
        total += e.bytes;
    return total;
}

std::size_t
Store::gc(std::uint64_t max_objects, std::uint64_t max_bytes,
          std::vector<Entry> *evicted)
{
    // Lowest tick first = least recently used first; ticks are unique
    // by construction, so the order is total and deterministic.
    std::vector<std::size_t> order(index.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  return index[a].tick < index[b].tick;
              });

    std::uint64_t bytes = totalPayloadBytes();
    std::vector<char> drop(index.size(), 0);
    std::size_t kept = index.size();
    for (const std::size_t i : order) {
        if (kept <= max_objects && bytes <= max_bytes)
            break;
        drop[i] = 1;
        --kept;
        bytes -= index[i].bytes;
    }

    std::vector<Entry> keptEntries;
    std::size_t n = 0;
    keptEntries.reserve(kept);
    for (std::size_t i = 0; i < index.size(); ++i) {
        if (!drop[i]) {
            keptEntries.push_back(std::move(index[i]));
            continue;
        }
        std::error_code ec;
        std::filesystem::remove(objectPath(index[i].hash), ec);
        if (evicted)
            evicted->push_back(std::move(index[i]));
        ++n;
    }
    if (n) {
        index = std::move(keptEntries);
        dirty = true;
        flush();
    }
    return n;
}

void
Store::flush()
{
    if (!dirty)
        return;
    std::ostringstream os;
    os << "eole-store-v1 " << nextTick << "\n";
    for (const Entry &e : index) {
        os << e.hash << ' ' << e.kind << ' ' << e.bytes << ' ' << e.tick
           << ' ' << e.workload << ' ' << e.config << "\n";
    }
    const std::string text = os.str();
    const auto writeIndex = [&](std::FILE *f) {
        return std::fwrite(text.data(), 1, text.size(), f) == text.size();
    };
    std::string err;
    fatal_if(!writeWholeFile(dir + "/index", writeIndex, &err),
             "store %s: cannot write index: %s", dir.c_str(), err.c_str());
    dirty = false;
}

} // namespace eole
