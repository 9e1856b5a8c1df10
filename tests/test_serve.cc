/**
 * @file
 * Cross-process image serving (serve/) and the MapSource storage layer
 * under it (dbt/mapsource).
 *
 * Storage: the same image blob behind all three MapSource backings --
 * owned buffer, private file map, shared fd map -- parses to identical
 * records and installs bit-identically, with translations pointing
 * INTO the backing (never copied out of it); page-residency counters
 * stay sane across backings.
 *
 * Serving: a real ImageHost on a Unix socket hands its sealed
 * generation to an ImageClient over SCM_RIGHTS; a VM bound to the
 * client endpoint warm-boots zero-copy and retires identically to the
 * interpreter. Publishing a new generation never invalidates a held
 * one (kernel-side lifetime). Failure policy is fall-back-to-cold:
 * a missing daemon, a garbled handshake or an unsealed image fd
 * leaves acquire() null and the VM boots cold, never crashes.
 *
 * Durability: the atomic save path (temp + fsync + rename) never
 * exposes a torn file to a concurrent reader, and I/O failures carry
 * errno detail instead of collapsing into Truncated.
 */

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dbt/image.hh"
#include "dbt/mapsource.hh"
#include "engine/cache_mgr.hh"
#include "engine/warm_start.hh"
#include "helpers.hh"
#include "serve/image_client.hh"
#include "serve/image_host.hh"
#include "serve/protocol.hh"

#ifdef __unix__
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

namespace cdvm
{
namespace
{

using test::RunResult;
using test::runInterp;
using test::sameOutcome;

vmm::VmmConfig
cfgSoft()
{
    vmm::VmmConfig c = engine::EngineConfig::vmSoft();
    c.hotThreshold = 30;
    return c;
}

workload::Program
testProgram(u64 seed = 7)
{
    workload::ProgramParams pp;
    pp.seed = seed;
    return workload::generateProgram(pp);
}

std::string
tempPath(const char *name)
{
    return ::testing::TempDir() + name;
}

/** Run a program cold and capture its warm-start image. */
dbt::TransImage
capturedImage(const workload::Program &prog)
{
    x86::Memory mem;
    prog.loadInto(mem);
    x86::CpuState cpu = prog.initialState();
    vmm::Vmm vm(mem, cfgSoft());
    vm.run(cpu, 10'000'000);
    return vm.captureWarmStart();
}

/** A captured image rebuilt as a blob stamped with generation. */
std::vector<u8>
builtImage(const dbt::TransImage &img, u64 generation = 1)
{
    dbt::ImageBuilder b(dbt::ImageBuilder::Options{0, generation});
    b.add(img);
    return b.build();
}

/** A private install target: guest memory + the engine structures a
 *  warm install writes into. */
struct InstallTarget
{
    x86::Memory mem;
    engine::EngineConfig cfg = cfgSoft();
    engine::EngineStats stats;
    engine::EventStream events;
    engine::BranchProfile prof;
    engine::CodeCacheManager ccm{cfg, stats, events};

    explicit InstallTarget(const workload::Program &prog)
    {
        prog.loadInto(mem);
    }
};

/** Run a warm boot through an endpoint binding and compare to ref. */
void
expectWarmBootMatches(const workload::Program &prog,
                      const RunResult &ref, x86::Memory &ref_mem,
                      std::shared_ptr<dbt::ImageEndpoint> endpoint,
                      bool expect_warm)
{
    engine::SharedServices svc;
    svc.imageEndpoint = std::move(endpoint);
    x86::Memory mem;
    prog.loadInto(mem);
    RunResult got;
    got.cpu = prog.initialState();
    vmm::Vmm vm(mem, cfgSoft(), svc);
    got.exit = vm.run(got.cpu, 10'000'000);
    got.retired = got.cpu.icount;
    EXPECT_TRUE(sameOutcome(prog, ref, ref_mem, got, mem));
    if (expect_warm) {
        EXPECT_GT(vm.stats().warmInstalled, 0u);
        EXPECT_EQ(vm.stats().warmBodyCopies, 0u);
        EXPECT_GT(vm.stats().warmMappedBytes, 0u);
    } else {
        EXPECT_EQ(vm.stats().warmInstalled, 0u);
    }
}

// ---------------------------------------------------------------------
// MapSource: one blob, three backings
// ---------------------------------------------------------------------

TEST(MapSource, BackingsParseAndInstallIdentically)
{
    workload::Program prog = testProgram();
    const std::vector<u8> blob = builtImage(capturedImage(prog));
    const std::string path = tempPath("mapsource_eq.cdvmimg");
    ASSERT_TRUE(dbt::TransImage::save(path, blob));

    dbt::TransImage owned;
    ASSERT_EQ(dbt::TransImage::adopt(blob, owned),
              dbt::LoadError::None);
    EXPECT_EQ(owned.backingKind(), dbt::MapSource::Kind::OwnedBuffer);
    EXPECT_FALSE(owned.isMapped());

    dbt::TransImage filemap;
    ASSERT_EQ(dbt::TransImage::load(path, filemap),
              dbt::LoadError::None);
#ifdef __unix__
    EXPECT_EQ(filemap.backingKind(), dbt::MapSource::Kind::FileMap);
    EXPECT_TRUE(filemap.isMapped());

    std::FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    dbt::TransImage fdmap;
    ASSERT_EQ(dbt::TransImage::loadFd(::fileno(f), fdmap),
              dbt::LoadError::None);
    std::fclose(f); // the mapping outlives the descriptor
    EXPECT_EQ(fdmap.backingKind(), dbt::MapSource::Kind::SharedFd);
    EXPECT_TRUE(fdmap.isMapped());

    const dbt::TransImage *imgs[] = {&owned, &filemap, &fdmap};
#else
    const dbt::TransImage *imgs[] = {&owned, &filemap};
#endif

    engine::WarmStartReport first;
    for (const dbt::TransImage *img : imgs) {
        EXPECT_EQ(img->header().checksum, owned.header().checksum);
        ASSERT_EQ(img->recordCount(), owned.recordCount());
        EXPECT_EQ(img->sizeBytes(), blob.size());

        InstallTarget t(prog);
        const engine::WarmStartReport r = engine::warmStartInstall(
            *img, t.mem, t.ccm, t.prof);
        ASSERT_GT(r.installed, 0u)
            << dbt::MapSource::kindName(img->backingKind());
        if (img == &owned)
            first = r;
        EXPECT_EQ(r.installed, first.installed);
        EXPECT_EQ(r.installedInsns, first.installedInsns);
        EXPECT_EQ(r.relocations, first.relocations);

        // Views point into THIS backing, not a copy of it.
        const u8 *lo = reinterpret_cast<const u8 *>(&img->header());
        for (std::size_t i = 0; i < img->recordCount(); ++i) {
            const dbt::TransImage::RecordView v = img->record(i);
            const dbt::Translation *t2 = t.ccm.lookup(
                v.hdr->entryPc,
                static_cast<dbt::TransKind>(v.hdr->kind));
            ASSERT_NE(t2, nullptr) << i;
            const u8 *code =
                reinterpret_cast<const u8 *>(t2->code().data());
            EXPECT_TRUE(code >= lo && code < lo + img->sizeBytes())
                << "record " << i << " body copied out of the "
                << dbt::MapSource::kindName(img->backingKind())
                << " backing";
        }
    }
    std::remove(path.c_str());
}

TEST(MapSource, ResidencyCountersSane)
{
    const std::vector<u8> blob = builtImage(capturedImage(testProgram(11)));
    const std::string path = tempPath("mapsource_res.cdvmimg");
    ASSERT_TRUE(dbt::TransImage::save(path, blob));

    dbt::TransImage owned;
    ASSERT_EQ(dbt::TransImage::adopt(blob, owned),
              dbt::LoadError::None);
    const dbt::MapResidency ores = owned.residency();
    EXPECT_GT(ores.pagesTotal, 0u);
    EXPECT_EQ(ores.pagesResident, ores.pagesTotal); // heap is resident
    EXPECT_EQ(ores.pagesShared, 0u);

    dbt::TransImage mapped;
    ASSERT_EQ(dbt::TransImage::load(path, mapped),
              dbt::LoadError::None);
    const dbt::MapResidency mres = mapped.residency();
    EXPECT_EQ(mres.pagesTotal, ores.pagesTotal);
    EXPECT_LE(mres.pagesResident, mres.pagesTotal);
    EXPECT_LE(mres.pagesShared, mres.pagesResident);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Error detail (the mmap/fread audit): errno survives, typed errors
// ---------------------------------------------------------------------

TEST(Serve, IoErrorsCarryErrnoDetail)
{
    dbt::TransImage img;
    EXPECT_EQ(dbt::TransImage::load("/nonexistent/dir/no.cdvmimg",
                                    img),
              dbt::LoadError::Io);
    EXPECT_EQ(dbt::lastIoErrno(), ENOENT);
    const std::string detail =
        dbt::loadErrorDetail(dbt::LoadError::Io);
    EXPECT_NE(detail.find("No such file"), std::string::npos)
        << detail;

    // Saves report failures the same way (unwritable directory).
    const std::vector<u8> bytes{1, 2, 3};
    EXPECT_FALSE(dbt::atomicWriteFile("/nonexistent/dir/out", bytes));
    EXPECT_EQ(dbt::lastIoErrno(), ENOENT);
}

TEST(Serve, AtomicSaveNeverTearsConcurrentReaders)
{
    const dbt::TransImage img = capturedImage(testProgram(13));
    const std::vector<u8> a = builtImage(img, 1);
    const std::vector<u8> b = builtImage(img, 2);
    ASSERT_NE(a, b); // distinct generations -> distinct bytes
    const std::string path = tempPath("atomic_save.cdvmimg");
    ASSERT_TRUE(dbt::TransImage::save(path, a));

    std::atomic<bool> stop{false};
    std::atomic<unsigned> torn{0}, loads{0};
    std::thread reader([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            dbt::TransImage img;
            // Atomic rename: a reader sees the OLD complete file or
            // the NEW complete file, never a truncated/mixed one.
            if (dbt::TransImage::load(path, img) !=
                dbt::LoadError::None)
                ++torn;
            ++loads;
        }
    });
    for (int i = 0; i < 200; ++i)
        ASSERT_TRUE(dbt::TransImage::save(path, i & 1 ? b : a));
    stop = true;
    reader.join();
    EXPECT_EQ(torn.load(), 0u);
    EXPECT_GT(loads.load(), 0u);
    std::remove(path.c_str());
}

#ifdef __unix__

// ---------------------------------------------------------------------
// Serving: host daemon + client over a real Unix socket
// ---------------------------------------------------------------------

TEST(Serve, FdPassingRoundTrip)
{
    workload::Program prog = testProgram(17);
    const std::vector<u8> blob = builtImage(capturedImage(prog));
    const std::string sock = tempPath("serve_rt.sock");

    serve::ImageHost host;
    ASSERT_TRUE(host.publish(blob)) << host.lastError();
    ASSERT_TRUE(host.start(sock)) << host.lastError();
    EXPECT_TRUE(host.running());

    auto client = std::make_shared<serve::ImageClient>();
    ASSERT_TRUE(client->connect(sock)) << client->lastError();
    const auto img = client->acquire();
    ASSERT_NE(img, nullptr);
    EXPECT_EQ(client->generation(), host.generation());
    EXPECT_EQ(img->backingKind(), dbt::MapSource::Kind::SharedFd);
    EXPECT_TRUE(img->isMapped());
    EXPECT_EQ(img->sizeBytes(), blob.size());
    // Byte-identical to the host's own view of the generation.
    EXPECT_EQ(img->header().checksum,
              host.acquire()->header().checksum);
    EXPECT_EQ(img->recordCount(), host.acquire()->recordCount());

    // A VM bound to the client endpoint warm-boots zero-copy and
    // retires exactly like the interpreter.
    x86::Memory ref_mem;
    const RunResult ref = runInterp(prog, ref_mem);
    expectWarmBootMatches(prog, ref, ref_mem, client, true);

    host.stop();
    EXPECT_FALSE(host.running());
    const serve::ImageHost::Stats st = host.stats();
    EXPECT_GE(st.publishes, 1u);
    EXPECT_GE(st.clientsServed, 1u);
    EXPECT_GE(st.imagesSent, 1u);
    EXPECT_EQ(st.badRequests, 0u);
}

TEST(Serve, PublishNeverInvalidatesHeldGenerations)
{
    workload::Program prog = testProgram(19);
    const dbt::TransImage img = capturedImage(prog);
    const std::string sock = tempPath("serve_gen.sock");

    serve::ImageHost host;
    ASSERT_TRUE(host.publish(builtImage(img, 1)));
    ASSERT_TRUE(host.start(sock)) << host.lastError();

    serve::ImageClient client;
    ASSERT_TRUE(client.connect(sock)) << client.lastError();
    const auto held = client.acquire();
    ASSERT_NE(held, nullptr);
    const u64 held_gen = client.generation();
    const u64 held_checksum = held->header().checksum;

    // Writer publishes a new generation; the host's fd for the old
    // sealed object is closed.
    ASSERT_TRUE(host.publish(builtImage(img, 2)));
    ASSERT_TRUE(client.refresh()) << client.lastError();
    const auto fresh = client.acquire();
    ASSERT_NE(fresh, nullptr);
    EXPECT_GT(client.generation(), held_gen);
    EXPECT_NE(fresh.get(), held.get());

    // The held generation stays fully readable and installable: the
    // kernel keeps the sealed object alive while our mapping does.
    EXPECT_EQ(held->header().checksum, held_checksum);
    InstallTarget t(prog);
    const engine::WarmStartReport r =
        engine::warmStartInstall(*held, t.mem, t.ccm, t.prof);
    EXPECT_GT(r.installed, 0u);
    host.stop();
}

TEST(Serve, EmptyHostHandshakesWithNoImage)
{
    const std::string sock = tempPath("serve_empty.sock");
    serve::ImageHost host;
    ASSERT_TRUE(host.start(sock)) << host.lastError();

    serve::ImageClient client;
    // The daemon is up with nothing published: the handshake succeeds
    // and the client stays cold (null acquire).
    EXPECT_TRUE(client.connect(sock)) << client.lastError();
    EXPECT_EQ(client.acquire(), nullptr);

    // A publish becomes visible on the next refresh.
    ASSERT_TRUE(host.publish(capturedImage(testProgram(23)).bytes()));
    ASSERT_TRUE(client.refresh()) << client.lastError();
    EXPECT_NE(client.acquire(), nullptr);
    host.stop();
}

TEST(Serve, DaemonAbsentFallsBackCold)
{
    auto client = std::make_shared<serve::ImageClient>();
    EXPECT_FALSE(client->connect(tempPath("serve_nobody.sock")));
    EXPECT_EQ(client->acquire(), nullptr);
    EXPECT_FALSE(client->lastError().empty());

    // A VM bound to the dead endpoint boots cold and still retires
    // exactly like the interpreter: serving is an accelerator, never
    // a dependency.
    workload::Program prog = testProgram(29);
    x86::Memory ref_mem;
    const RunResult ref = runInterp(prog, ref_mem);
    expectWarmBootMatches(prog, ref, ref_mem, client, false);
}

/** A listening Unix socket at sock for a fake daemon (-1 on error). */
int
fakeDaemonSocket(const std::string &sock)
{
    std::remove(sock.c_str());
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (sock.size() >= sizeof addr.sun_path)
        return -1;
    std::memcpy(addr.sun_path, sock.c_str(), sock.size() + 1);
    const int lfd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (lfd < 0)
        return -1;
    if (::bind(lfd, reinterpret_cast<sockaddr *>(&addr), sizeof addr) !=
            0 ||
        ::listen(lfd, 1) != 0) {
        ::close(lfd);
        return -1;
    }
    return lfd;
}

TEST(Serve, GarbledHandshakeFallsBackCold)
{
    const std::string sock = tempPath("serve_garbled.sock");

    // A fake daemon that accepts and answers with garbage.
    const int lfd = fakeDaemonSocket(sock);
    ASSERT_GE(lfd, 0);
    std::thread fake([lfd] {
        const int c = ::accept(lfd, nullptr, nullptr);
        if (c >= 0) {
            char junk[64];
            std::memset(junk, 0x5a, sizeof junk);
            [[maybe_unused]] ssize_t n =
                ::write(c, junk, sizeof junk);
            ::close(c);
        }
    });

    serve::ImageClient client;
    EXPECT_FALSE(client.connect(sock));
    EXPECT_EQ(client.acquire(), nullptr);
    EXPECT_FALSE(client.lastError().empty());

    fake.join();
    ::close(lfd);
    std::remove(sock.c_str());
}

#ifdef MFD_ALLOW_SEALING

TEST(Serve, UnsealedImageFdFallsBackCold)
{
    // A fake daemon that answers the handshake correctly but passes a
    // valid image in an UNSEALED memfd: its bytes could change after
    // the client verified them, so the client must not map it.
    workload::Program prog = testProgram(37);
    const std::vector<u8> blob = builtImage(capturedImage(prog));
    const int mfd = ::memfd_create("cdvm-unsealed", MFD_CLOEXEC);
    ASSERT_GE(mfd, 0);
    ASSERT_EQ(::write(mfd, blob.data(), blob.size()),
              static_cast<ssize_t>(blob.size()));

    const std::string sock = tempPath("serve_unsealed.sock");
    const int lfd = fakeDaemonSocket(sock);
    ASSERT_GE(lfd, 0);
    std::thread fake([lfd, mfd, bytes = blob.size()] {
        const int c = ::accept(lfd, nullptr, nullptr);
        if (c < 0)
            return;
        serve::ImageRequest req;
        int no_fd = -1;
        if (serve::recvWithFd(c, &req, sizeof req, &no_fd)) {
            serve::ImageReply rep;
            rep.status = static_cast<u32>(serve::ReplyStatus::Image);
            rep.generation = 1;
            rep.imageBytes = bytes;
            serve::sendWithFd(c, &rep, sizeof rep, mfd);
        }
        if (no_fd >= 0)
            ::close(no_fd);
        ::close(c);
    });

    auto client = std::make_shared<serve::ImageClient>();
    EXPECT_FALSE(client->connect(sock));
    EXPECT_EQ(client->acquire(), nullptr);
    EXPECT_NE(client->lastError().find("unsealed"), std::string::npos)
        << client->lastError();
    fake.join();
    ::close(lfd);
    ::close(mfd);
    std::remove(sock.c_str());

    x86::Memory ref_mem;
    const RunResult ref = runInterp(prog, ref_mem);
    expectWarmBootMatches(prog, ref, ref_mem, client, false);
}

#endif // MFD_ALLOW_SEALING

#endif // __unix__

} // namespace
} // namespace cdvm
