/**
 * @file
 * Run-manifest round trip: toJson -> parseJson -> fromJson must be
 * the identity on every field (including a seed above int64 range),
 * and loadRunArtifacts must load exactly the artifacts the manifest
 * references, treating absent paths as empty slots and unreadable
 * referenced paths as hard errors.
 */

#include "report/manifest.hh"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "support/json.hh"
#include "temp_dir.hh"

namespace balance
{
namespace
{

RunManifest
filledManifest()
{
    RunManifest man;
    man.bench = "report_tool";
    man.seed = 18364758544493064720ULL; // > INT64_MAX
    man.scale = 0.05;
    man.threads = 4;
    man.withBest = true;
    man.machines = {"GP4", "PlayDoh"};
    man.heuristics = {"Balance", "CP", "SH"};
    man.metricsPath = "metrics.json";
    man.superblocksPath = "superblocks.jsonl";
    man.tracePath = "trace.json";
    man.decisionLogs = {{"GP4", "decisions.GP4.jsonl"},
                        {"PlayDoh", "decisions.PlayDoh.jsonl"}};
    man.wall = {{"GP4", 12.5}, {"PlayDoh", 31.25}};
    return man;
}

TEST(RunManifest, JsonRoundTripIsIdentity)
{
    RunManifest man = filledManifest();
    JsonParseResult parsed = parseJson(man.toJson());
    ASSERT_TRUE(parsed.ok()) << parsed.error.describe();

    RunManifest back;
    std::string error;
    ASSERT_TRUE(RunManifest::fromJson(parsed.value, &back, &error))
        << error;
    EXPECT_EQ(back.version, RunManifest::currentVersion);
    EXPECT_EQ(back.bench, man.bench);
    EXPECT_EQ(back.seed, man.seed) << "u64 seed survives exactly";
    EXPECT_DOUBLE_EQ(back.scale, man.scale);
    EXPECT_EQ(back.threads, man.threads);
    EXPECT_EQ(back.withBest, man.withBest);
    EXPECT_EQ(back.machines, man.machines);
    EXPECT_EQ(back.heuristics, man.heuristics);
    EXPECT_EQ(back.metricsPath, man.metricsPath);
    EXPECT_EQ(back.superblocksPath, man.superblocksPath);
    EXPECT_EQ(back.tracePath, man.tracePath);
    ASSERT_EQ(back.decisionLogs.size(), 2u);
    EXPECT_EQ(back.decisionLogs[1].machine, "PlayDoh");
    EXPECT_EQ(back.decisionLogs[1].path, "decisions.PlayDoh.jsonl");
    ASSERT_EQ(back.wall.size(), 2u);
    EXPECT_EQ(back.wall[0].machine, "GP4");
    EXPECT_DOUBLE_EQ(back.wall[1].ms, 31.25);

    // And the re-serialization is byte-identical: the manifest is
    // one of the documents the parser round-trips exactly.
    EXPECT_EQ(back.toJson(), man.toJson());
}

TEST(RunManifest, SeedSerializesAsDecimalString)
{
    RunManifest man;
    man.seed = 18364758544493064720ULL;
    JsonParseResult parsed = parseJson(man.toJson());
    ASSERT_TRUE(parsed.ok());
    const JsonValue &seed = parsed.value.get("seed");
    ASSERT_TRUE(seed.isString())
        << "u64 does not fit JSON's exact-int64 range";
    EXPECT_EQ(seed.asString(), "18364758544493064720");
}

TEST(RunManifest, FromJsonRejectsMissingAndMistypedMembers)
{
    RunManifest man = filledManifest();
    std::string error;
    RunManifest out;

    JsonParseResult base = parseJson(man.toJson());
    ASSERT_TRUE(base.ok());

    JsonValue noSeed = base.value;
    noSeed.set("seed", JsonValue::makeNull());
    EXPECT_FALSE(RunManifest::fromJson(noSeed, &out, &error));
    EXPECT_NE(error.find("seed"), std::string::npos) << error;

    JsonValue badScale = base.value;
    badScale.set("scale", JsonValue::makeString("fast"));
    EXPECT_FALSE(RunManifest::fromJson(badScale, &out, &error));
    EXPECT_NE(error.find("scale"), std::string::npos) << error;

    EXPECT_FALSE(
        RunManifest::fromJson(JsonValue::makeArray(), &out, &error));
}

TEST(ArtifactPaths, ResolveAgainstTheManifestDirectory)
{
    EXPECT_EQ(resolveArtifactPath("/runs/a", "metrics.json"),
              "/runs/a/metrics.json");
    EXPECT_EQ(resolveArtifactPath("", "metrics.json"), "metrics.json");
    EXPECT_EQ(resolveArtifactPath("/runs/a", "/abs/metrics.json"),
              "/abs/metrics.json")
        << "absolute artifact paths are kept as-is";
}

TEST(ArtifactPaths, ReadWriteTextFileRoundTrip)
{
    std::string dir = makeTempDir("balance_manifest_test_rw");
    std::string path = dir + "/rw.txt";
    std::string error;
    ASSERT_TRUE(writeTextFile(path, "line1\nline2\n", &error)) << error;
    std::string back;
    ASSERT_TRUE(readTextFile(path, &back, &error)) << error;
    EXPECT_EQ(back, "line1\nline2\n");
    std::remove(path.c_str());

    EXPECT_FALSE(readTextFile(dir + "/missing_xyz", &back, &error));
    EXPECT_FALSE(error.empty());
}

/** A run directory on disk with just the pieces the test wants. */
class LoadArtifactsTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir = makeTempDir("balance_manifest_test_dir");
    }

    void
    write(const std::string &name, const std::string &text)
    {
        std::string error;
        ASSERT_TRUE(writeTextFile(dir + "/" + name, text, &error))
            << error;
    }

    std::string dir;
};

TEST_F(LoadArtifactsTest, LoadsEveryReferencedArtifact)
{
    RunManifest man;
    man.machines = {"GP4"};
    man.heuristics = {"Balance"};
    man.metricsPath = "metrics.json";
    man.superblocksPath = "superblocks.jsonl";
    man.decisionLogs = {{"GP4", "decisions.GP4.jsonl"}};
    write("manifest.json", man.toJson());
    write("metrics.json", "{\"counters\":{\"report.superblocks\":2}}");
    write("superblocks.jsonl",
          "{\"superblock\":\"gcc.sb0\"}\n{\"superblock\":\"gcc.sb1\"}\n");
    write("decisions.GP4.jsonl",
          "{\"superblock\":\"gcc.sb0\",\"cycle\":0}\n");

    RunArtifacts run;
    std::string error;
    ASSERT_TRUE(loadRunArtifacts(dir + "/manifest.json", &run, &error))
        << error;
    EXPECT_EQ(run.dir, dir);
    EXPECT_EQ(run.metrics.get("counters")
                  .get("report.superblocks").asInt(),
              2);
    ASSERT_EQ(run.superblocks.size(), 2u);
    EXPECT_EQ(run.superblocks[1].get("superblock").asString(),
              "gcc.sb1");
    ASSERT_EQ(run.decisions.size(), 1u);
    ASSERT_EQ(run.decisions[0].size(), 1u);
    EXPECT_EQ(run.decisions[0][0].get("cycle").asInt(), 0);
}

TEST_F(LoadArtifactsTest, MetricsOnlyBaselineLoads)
{
    // The committed CI baseline carries only manifest + metrics
    // (docs/REPORTING.md): everything else must stay empty, not fail.
    // It predates the retired "bench_json" slot, which the reader
    // ignores like any unknown key.
    RunManifest man;
    man.metricsPath = "metrics.json";
    std::string json = man.toJson();
    json.insert(json.find("\"trace\""), "\"bench_json\":\"gone.json\",");
    write("manifest.json", json);
    write("metrics.json", "{\"counters\":{}}");

    RunArtifacts run;
    std::string error;
    ASSERT_TRUE(loadRunArtifacts(dir + "/manifest.json", &run, &error))
        << error;
    EXPECT_TRUE(run.superblocks.empty());
    EXPECT_TRUE(run.decisions.empty());
}

TEST_F(LoadArtifactsTest, ReferencedButMissingArtifactIsAnError)
{
    RunManifest man;
    man.metricsPath = "metrics.json"; // never written
    write("manifest.json", man.toJson());

    RunArtifacts run;
    std::string error;
    EXPECT_FALSE(
        loadRunArtifacts(dir + "/manifest.json", &run, &error));
    EXPECT_NE(error.find("metrics.json"), std::string::npos) << error;
}

TEST_F(LoadArtifactsTest, MalformedArtifactReportsTheFile)
{
    RunManifest man;
    man.metricsPath = "metrics.json";
    write("manifest.json", man.toJson());
    write("metrics.json", "{\"counters\":"); // truncated

    RunArtifacts run;
    std::string error;
    EXPECT_FALSE(
        loadRunArtifacts(dir + "/manifest.json", &run, &error));
    EXPECT_NE(error.find("metrics.json"), std::string::npos) << error;
}

} // namespace
} // namespace balance
