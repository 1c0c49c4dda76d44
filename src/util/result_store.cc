/**
 * @file
 * Result-store implementation.
 *
 * The scan trusts nothing: lengths are sanity-capped before any
 * allocation, every record's CRC is recomputed, and the first
 * structural problem (short read, absurd length) ends the scan and
 * truncates the file back to the last intact record so appends
 * never land after garbage.
 */

#include "result_store.hh"

#include <cerrno>
#include <cstring>
#include <unistd.h>

#include "util/crc32.hh"
#include "util/logging.hh"
#include "util/wire.hh"

namespace tlc {

const char kResultStoreMagic[4] = {'T', 'L', 'R', 'S'};

namespace {

constexpr std::size_t kHeaderBytes = 8;

} // namespace

ResultStore::~ResultStore()
{
    close();
}

void
ResultStore::close()
{
    std::lock_guard<std::mutex> lock(mu_);
    if (file_) {
        std::fflush(file_);
        std::fclose(file_);
        file_ = nullptr;
    }
    index_.clear();
    path_.clear();
    options_ = ResultStoreOptions{};
    dropped_ = 0;
    validEnd_ = 0;
}

bool
ResultStore::isOpen() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return file_ != nullptr;
}

std::size_t
ResultStore::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return index_.size();
}

std::uint64_t
ResultStore::droppedRecords() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return dropped_;
}

Status
ResultStore::open(const std::string &path, const ResultStoreOptions &options)
{
    close();
    std::lock_guard<std::mutex> lock(mu_);
    options_ = options;
    // "r+b" keeps existing contents; fall back to "w+b" only when
    // the file does not exist yet, so an unreadable existing file is
    // an error rather than silently clobbered.
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    if (!f) {
        f = std::fopen(path.c_str(), "w+b");
        if (!f) {
            return statusf(StatusCode::IoError,
                           "cannot open or create result store '%s'",
                           path.c_str());
        }
    }
    file_ = f;
    path_ = path;
    Status s = scan();
    if (!s.ok()) {
        std::fclose(file_);
        file_ = nullptr;
        path_.clear();
        index_.clear();
        dropped_ = 0;
        return s;
    }
    return Status();
}

Status
ResultStore::scan()
{
    std::fseek(file_, 0, SEEK_END);
    long fileSize = std::ftell(file_);
    if (fileSize < 0) {
        return statusf(StatusCode::IoError,
                       "cannot size result store '%s'", path_.c_str());
    }

    auto writeHeader = [&]() -> Status {
        if (ftruncate(fileno(file_), 0) != 0) {
            return statusf(StatusCode::IoError,
                           "cannot truncate result store '%s'",
                           path_.c_str());
        }
        std::fseek(file_, 0, SEEK_SET);
        std::string h(kResultStoreMagic, 4);
        putU32le(h, kResultStoreVersion);
        if (std::fwrite(h.data(), 1, h.size(), file_) != h.size() ||
            std::fflush(file_) != 0) {
            return statusf(StatusCode::IoError,
                           "cannot write result store header to '%s'",
                           path_.c_str());
        }
        validEnd_ = static_cast<long>(kHeaderBytes);
        return Status();
    };

    if (fileSize == 0)
        return writeHeader();
    if (static_cast<std::size_t>(fileSize) < kHeaderBytes) {
        // A creation that died inside the header; no record was ever
        // written, so rebuilding the header loses nothing.
        ++dropped_;
        return writeHeader();
    }

    std::fseek(file_, 0, SEEK_SET);
    unsigned char header[kHeaderBytes];
    if (std::fread(header, 1, kHeaderBytes, file_) != kHeaderBytes) {
        return statusf(StatusCode::IoError,
                       "cannot read result store header of '%s'",
                       path_.c_str());
    }
    if (std::memcmp(header, kResultStoreMagic, 4) != 0) {
        return statusf(StatusCode::BadMagic,
                       "'%s' is not a result store (magic "
                       "%02x%02x%02x%02x)", path_.c_str(), header[0],
                       header[1], header[2], header[3]);
    }
    std::uint32_t version = getU32le(header + 4);
    if (version != kResultStoreVersion) {
        return statusf(StatusCode::VersionMismatch,
                       "result store '%s' has format version %u where "
                       "this build expects %u", path_.c_str(), version,
                       kResultStoreVersion);
    }

    // Scan records. validEnd tracks the byte just past the last
    // structurally intact record; anything after a short read or an
    // absurd length is a torn tail and gets cut off so appends never
    // follow garbage.
    long validEnd = static_cast<long>(kHeaderBytes);
    bool tornTail = false;
    std::string key, payload;
    for (;;) {
        unsigned char lens[8];
        std::size_t got = std::fread(lens, 1, sizeof lens, file_);
        if (got == 0)
            break; // clean end at a record boundary
        if (got < sizeof lens) {
            tornTail = true;
            break;
        }
        std::uint32_t keyBytes = getU32le(lens);
        std::uint32_t payloadBytes = getU32le(lens + 4);
        if (keyBytes == 0 || keyBytes > kResultStoreMaxKeyBytes ||
            payloadBytes > kResultStoreMaxPayloadBytes) {
            tornTail = true;
            break;
        }
        key.resize(keyBytes);
        payload.resize(payloadBytes);
        unsigned char crcBuf[4];
        if (std::fread(key.data(), 1, keyBytes, file_) != keyBytes ||
            std::fread(payload.data(), 1, payloadBytes, file_) !=
                payloadBytes ||
            std::fread(crcBuf, 1, 4, file_) != 4) {
            tornTail = true;
            break;
        }
        std::uint32_t state = crc32Update(kCrc32Init, key.data(),
                                          keyBytes);
        state = crc32Update(state, payload.data(), payloadBytes);
        if (crc32Final(state) != getU32le(crcBuf)) {
            // The record's frame is intact (lengths were plausible
            // and everything was present), so scanning can continue
            // past it — the entry just stops answering lookups.
            ++dropped_;
            validEnd += static_cast<long>(sizeof lens) + keyBytes +
                payloadBytes + 4;
            continue;
        }
        index_[key] = payload; // later records supersede earlier ones
        validEnd += static_cast<long>(sizeof lens) + keyBytes +
            payloadBytes + 4;
    }

    if (tornTail || validEnd < fileSize) {
        ++dropped_;
        if (ftruncate(fileno(file_), validEnd) != 0) {
            return statusf(StatusCode::IoError,
                           "cannot truncate torn tail of result store "
                           "'%s'", path_.c_str());
        }
    }
    std::fseek(file_, validEnd, SEEK_SET);
    validEnd_ = validEnd;
    return Status();
}

bool
ResultStore::lookup(const std::string &key, std::string *payload) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it == index_.end())
        return false;
    if (payload)
        *payload = it->second;
    return true;
}

Status
ResultStore::append(const std::string &key, std::string_view payload)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (!file_) {
        return statusf(StatusCode::IoError,
                       "append to a result store that is not open");
    }
    if (key.empty() || key.size() > kResultStoreMaxKeyBytes) {
        return statusf(StatusCode::InvalidConfig,
                       "result store key of %zu bytes (limit %u, and "
                       "empty keys are reserved)", key.size(),
                       kResultStoreMaxKeyBytes);
    }
    if (payload.size() > kResultStoreMaxPayloadBytes) {
        return statusf(StatusCode::InvalidConfig,
                       "result store payload of %zu bytes (limit %u)",
                       payload.size(), kResultStoreMaxPayloadBytes);
    }

    // One contiguous buffer, one fwrite, one flush: a crash leaves
    // either the whole record or a torn tail the next open() cuts.
    std::string rec;
    rec.reserve(8 + key.size() + payload.size() + 4);
    putU32le(rec, static_cast<std::uint32_t>(key.size()));
    putU32le(rec, static_cast<std::uint32_t>(payload.size()));
    rec.append(key);
    rec.append(payload);
    std::uint32_t state =
        crc32Update(kCrc32Init, key.data(), key.size());
    state = crc32Update(state, payload.data(), payload.size());
    putU32le(rec, crc32Final(state));

    // A failed or short write leaves a torn record at the tail; cut
    // the file back to the last intact record right away, so the
    // damage is repaired at write time (not on the next open) and a
    // later append in this process cannot land after garbage. errno
    // classifies the cause: the disk-full family (ENOSPC, EDQUOT,
    // EFBIG) becomes ResourceExhausted, hardware errors (EIO) and
    // the rest stay IoError.
    errno = 0;
    if (std::fwrite(rec.data(), 1, rec.size(), file_) != rec.size() ||
        std::fflush(file_) != 0) {
        const int err = errno;
        std::clearerr(file_);
        if (ftruncate(fileno(file_), validEnd_) == 0)
            std::fseek(file_, validEnd_, SEEK_SET);
        return statusf(statusCodeFromErrno(err),
                       "write to result store '%s' failed: %s",
                       path_.c_str(),
                       err ? std::strerror(err) : "short write");
    }
    if (options_.fsyncOnCommit && fsync(fileno(file_)) != 0) {
        // The record reached the OS but its durability is unknown;
        // report honestly and retract it so the caller's "append ok
        // => record committed" invariant holds.
        const int err = errno;
        if (ftruncate(fileno(file_), validEnd_) == 0)
            std::fseek(file_, validEnd_, SEEK_SET);
        return statusf(statusCodeFromErrno(err),
                       "fsync of result store '%s' failed: %s",
                       path_.c_str(), std::strerror(err));
    }
    validEnd_ += static_cast<long>(rec.size());
    index_[key] = std::string(payload);
    return Status();
}

} // namespace tlc
