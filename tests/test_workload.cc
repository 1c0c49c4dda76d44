/**
 * @file
 * Tests for the seven workload models: Table 1 metadata, ratio
 * preservation, determinism, and the miss-rate anchors the paper
 * quotes (espresso ~1.0 %, eqntott ~1.5 %, tomcatv ~10.9 % at 32 KB,
 * tomcatv flat with size).
 */

#include <gtest/gtest.h>

#include <sstream>

#include "cache/single_level.hh"
#include "trace/io.hh"
#include "trace/workload.hh"

using namespace tlc;

namespace {

constexpr std::uint64_t kRefs = 400000;

double
missRateAt(Benchmark b, std::uint64_t l1_bytes,
           std::uint64_t refs = kRefs)
{
    TraceBuffer t = Workloads::generate(b, refs);
    CacheParams p;
    p.sizeBytes = l1_bytes;
    p.lineBytes = 16;
    p.assoc = 1;
    SingleLevelHierarchy h(p);
    h.simulate(t, refs / 10);
    return h.stats().l1MissRate();
}

} // namespace

TEST(Workloads, AllListsSevenInTableOrder)
{
    const auto &all = Workloads::all();
    ASSERT_EQ(all.size(), 7u);
    EXPECT_EQ(Workloads::info(all.front()).name, std::string("gcc1"));
    EXPECT_EQ(Workloads::info(all.back()).name, std::string("tomcatv"));
}

TEST(Workloads, Table1Metadata)
{
    const WorkloadInfo &gcc = Workloads::info(Benchmark::Gcc1);
    EXPECT_DOUBLE_EQ(gcc.paperInstrRefsM, 22.7);
    EXPECT_DOUBLE_EQ(gcc.paperDataRefsM, 7.2);
    EXPECT_NEAR(gcc.paperTotalRefsM(), 29.9, 1e-9);

    const WorkloadInfo &tom = Workloads::info(Benchmark::Tomcatv);
    EXPECT_DOUBLE_EQ(tom.paperInstrRefsM, 1986.3);
    EXPECT_DOUBLE_EQ(tom.paperDataRefsM, 963.6);
}

TEST(Workloads, ByNameRoundTrips)
{
    for (Benchmark b : Workloads::all())
        EXPECT_EQ(Workloads::byName(Workloads::info(b).name), b);
}

TEST(Workloads, ByNameRejectsUnknown)
{
    EXPECT_EXIT(Workloads::byName("dhrystone"),
                ::testing::ExitedWithCode(1), "unknown benchmark");
}

TEST(Workloads, GenerationIsDeterministic)
{
    TraceBuffer a = Workloads::generate(Benchmark::Li, 50000);
    TraceBuffer b = Workloads::generate(Benchmark::Li, 50000);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a[i], b[i]);
}

// The generator's output bytes, pinned: the TLCT v3 footer CRC of
// each benchmark's canonical 200 K-reference trace. A change to any
// stream, to the mixer or to the random number generator that shifts
// one record fails here, and not only in the figure goldens.
TEST(Workloads, GeneratedTracesArePinned)
{
    const std::pair<Benchmark, std::uint32_t> pins[] = {
        {Benchmark::Gcc1, 0xac6c1037u},
        {Benchmark::Espresso, 0x7b007941u},
        {Benchmark::Fpppp, 0x81b3f76cu},
        {Benchmark::Doduc, 0x33d79203u},
        {Benchmark::Li, 0xf31bebf9u},
        {Benchmark::Eqntott, 0x66684f1du},
        {Benchmark::Tomcatv, 0x798b0169u},
    };
    for (const auto &[b, want] : pins) {
        std::ostringstream os;
        writeCompressedTrace(os, Workloads::generate(b, 200'000, 0));
        const std::string bytes = os.str();
        ASSERT_GE(bytes.size(), 4u);
        const unsigned char *f = reinterpret_cast<const unsigned char *>(
            bytes.data() + bytes.size() - 4);
        const std::uint32_t got = f[0] | (f[1] << 8) | (f[2] << 16) |
            (static_cast<std::uint32_t>(f[3]) << 24);
        EXPECT_EQ(got, want) << Workloads::info(b).name;
    }
}

TEST(Workloads, RequestedLengthHonoured)
{
    for (Benchmark b : Workloads::all())
        EXPECT_EQ(Workloads::generate(b, 10000).totalRefs(), 10000u);
}

// The models must preserve Table 1's data-per-instruction ratios.
class WorkloadRatio : public ::testing::TestWithParam<Benchmark>
{
};

TEST_P(WorkloadRatio, MatchesTable1)
{
    Benchmark b = GetParam();
    TraceBuffer t = Workloads::generate(b, 200000);
    double want = Workloads::info(b).dataPerInstr();
    double got = static_cast<double>(t.dataRefs()) /
                 static_cast<double>(t.instrRefs());
    EXPECT_NEAR(got, want, 0.02) << Workloads::info(b).name;
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, WorkloadRatio,
    ::testing::ValuesIn(Workloads::all()),
    [](const ::testing::TestParamInfo<Benchmark> &info) {
        return Workloads::info(info.param).name;
    });

// Every reference stream must stay inside the 32-bit layout regions.
class WorkloadSanity : public ::testing::TestWithParam<Benchmark>
{
};

TEST_P(WorkloadSanity, MixesInstructionAndDataRefs)
{
    TraceBuffer t = Workloads::generate(GetParam(), 100000);
    EXPECT_GT(t.instrRefs(), 0u);
    EXPECT_GT(t.loadRefs(), 0u);
    EXPECT_GT(t.storeRefs(), 0u);
}

TEST_P(WorkloadSanity, InstructionRefsComeFromCodeSegment)
{
    TraceBuffer t = Workloads::generate(GetParam(), 50000);
    for (const auto &rec : t) {
        if (rec.type == RefType::Instr) {
            EXPECT_GE(rec.addr, 0x00400000u);
            EXPECT_LT(rec.addr, 0x01000000u);
        } else {
            EXPECT_GE(rec.addr, 0x10000000u);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, WorkloadSanity,
    ::testing::ValuesIn(Workloads::all()),
    [](const ::testing::TestParamInfo<Benchmark> &info) {
        return Workloads::info(info.param).name;
    });

// --- the paper's quantitative anchors (Section 3) -------------------

TEST(WorkloadAnchors, Espresso32KMissRateNearPaper)
{
    // Paper: 0.0100 at 32 KB. Allow a generous band; the shape
    // matters more than the third decimal.
    double m = missRateAt(Benchmark::Espresso, 32 * 1024);
    EXPECT_GT(m, 0.005);
    EXPECT_LT(m, 0.018);
}

TEST(WorkloadAnchors, Eqntott32KMissRateNearPaper)
{
    // Paper: 0.0149 at 32 KB.
    double m = missRateAt(Benchmark::Eqntott, 32 * 1024);
    EXPECT_GT(m, 0.008);
    EXPECT_LT(m, 0.025);
}

TEST(WorkloadAnchors, Tomcatv32KMissRateNearPaper)
{
    // Paper: 0.109 at 32 KB.
    double m = missRateAt(Benchmark::Tomcatv, 32 * 1024);
    EXPECT_GT(m, 0.08);
    EXPECT_LT(m, 0.14);
}

TEST(WorkloadAnchors, TomcatvFlatWithCacheSize)
{
    // Paper: "the miss rate does not drop appreciably as the cache
    // size is increased".
    double m8 = missRateAt(Benchmark::Tomcatv, 8 * 1024);
    double m128 = missRateAt(Benchmark::Tomcatv, 128 * 1024);
    EXPECT_LT(m8 - m128, 0.02);
}

TEST(WorkloadAnchors, MissRatesDecreaseWithSize)
{
    for (Benchmark b : Workloads::all()) {
        double m1 = missRateAt(b, 1024);
        double m16 = missRateAt(b, 16 * 1024);
        double m256 = missRateAt(b, 256 * 1024);
        EXPECT_GE(m1 + 1e-9, m16) << Workloads::info(b).name;
        EXPECT_GE(m16 + 1e-9, m256) << Workloads::info(b).name;
    }
}

TEST(WorkloadAnchors, FppppHasLargeInstructionFootprint)
{
    // fpppp's signature: big I-side miss drop between 64 KB and
    // 128-256 KB (huge straight-line code). Compare as a difference
    // rather than a ratio: at this trace length compulsory misses
    // put a floor under the 256 KB rate.
    double m64 = missRateAt(Benchmark::Fpppp, 64 * 1024);
    double m256 = missRateAt(Benchmark::Fpppp, 256 * 1024);
    EXPECT_GT(m64 - m256, 0.02);
}
