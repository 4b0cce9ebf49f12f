/**
 * @file
 * File-system IO paths and model-introspection coverage: the code a
 * downstream user hits first (loading real files, reading node
 * names and ground stamps) and the error paths around it.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "base/errors.hh"
#include "base/logging.hh"
#include "core/config_io.hh"
#include "core/package.hh"
#include "core/stack_model.hh"
#include "floorplan/floorplan.hh"
#include "floorplan/presets.hh"
#include "power/power_trace.hh"

namespace irtherm
{
namespace
{

/** RAII temp file that removes itself. */
class TempFile
{
  public:
    explicit TempFile(const std::string &name, const std::string &body)
        : path_("irtherm_test_" + name)
    {
        std::ofstream out(path_);
        out << body;
    }

    ~TempFile() { std::remove(path_.c_str()); }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

TEST(FileIo, FloorplanLoadFromDisk)
{
    TempFile f("fp.flp",
               "# demo\nblkA 0.01 0.01 0.0 0.0\n"
               "blkB 0.01 0.01 0.01 0.0\n");
    const Floorplan fp = Floorplan::loadFlp(f.path());
    EXPECT_EQ(fp.blockCount(), 2u);
    EXPECT_NEAR(fp.width(), 0.02, 1e-12);
}

TEST(FileIo, FloorplanMissingFileIsFatal)
{
    EXPECT_THROW(Floorplan::loadFlp("definitely_not_there.flp"),
                 IoError);
}

TEST(FileIo, PtraceLoadFromDisk)
{
    TempFile f("trace.ptrace",
               "blkA blkB\n1.5 0.5\n2.5 0.25\n");
    const PowerTrace t = PowerTrace::loadPtrace(f.path(), 1e-3);
    EXPECT_EQ(t.sampleCount(), 2u);
    EXPECT_DOUBLE_EQ(t.sample(1)[0], 2.5);
}

TEST(FileIo, PtraceMissingFileIsFatal)
{
    EXPECT_THROW(PowerTrace::loadPtrace("nope.ptrace", 1e-3),
                 IoError);
}

TEST(FileIo, ConfigLoadFromDisk)
{
    TempFile f("run.config", "cooling oil\noil_velocity 11\n");
    const SimulationConfig cfg = loadConfig(f.path());
    EXPECT_EQ(cfg.package.cooling, CoolingKind::OilSilicon);
    EXPECT_DOUBLE_EQ(cfg.package.oilFlow.velocity, 11.0);
    EXPECT_THROW(loadConfig("nope.config"), FatalError);
}

TEST(ModelIntrospection, NodeNamesCarryLayerAndBlock)
{
    const Floorplan fp = floorplans::centerSourceChip(0.02, 0.004);
    const StackModel model(fp, PackageConfig::makeAirSink(1.0));

    // Silicon nodes are named die:<block>.
    const std::size_t die0 = model.siliconNodeBegin();
    EXPECT_EQ(model.nodeName(die0), "die:" + fp.block(0).name);

    // Every node has a layer-qualified name.
    bool saw_sink = false, saw_pcb = false;
    for (std::size_t n = 0; n < model.nodeCount(); ++n) {
        const std::string &name = model.nodeName(n);
        EXPECT_NE(name.find(':'), std::string::npos) << name;
        if (name.rfind("sink:", 0) == 0)
            saw_sink = true;
        if (name.rfind("pcb:", 0) == 0)
            saw_pcb = true;
    }
    EXPECT_TRUE(saw_sink);
    EXPECT_TRUE(saw_pcb);
    EXPECT_THROW(model.nodeName(model.nodeCount()),
                 std::out_of_range);
}

TEST(ModelIntrospection, GroundStampsPartitionByPath)
{
    const Floorplan fp = floorplans::centerSourceChip(0.02, 0.004);
    const StackModel model(fp, PackageConfig::makeAirSink(0.5));
    double primary = 0.0, secondary = 0.0;
    for (const StackModel::GroundStamp &gs : model.groundStamps()) {
        EXPECT_GT(gs.conductance, 0.0);
        EXPECT_LT(gs.node, model.nodeCount());
        (gs.primary ? primary : secondary) += gs.conductance;
    }
    // The primary stamps sum to exactly 1/rConvec.
    EXPECT_NEAR(primary, 1.0 / 0.5, 1e-9);
    // The natural-convection PCB path exists but is far weaker.
    EXPECT_GT(secondary, 0.0);
    EXPECT_LT(secondary, 0.1 * primary);
}

TEST(ModelIntrospection, OilNodesAppearInSplitVariant)
{
    const Floorplan fp = floorplans::uniformChip(2, 0.01, 0.01);
    PackageConfig pkg = PackageConfig::makeOilSilicon(10.0);
    pkg.oilFlow.capacitanceAtInterface = false;
    const StackModel model(fp, pkg);
    bool saw_oil = false;
    for (std::size_t n = 0; n < model.nodeCount(); ++n) {
        if (model.nodeName(n).rfind("oil:", 0) == 0)
            saw_oil = true;
    }
    EXPECT_TRUE(saw_oil);
}

TEST(ModelIntrospection, CoolantNodesAppearForMicrochannel)
{
    const Floorplan fp = floorplans::uniformChip(2, 0.01, 0.01);
    ModelOptions mo;
    mo.mode = ModelMode::Grid;
    mo.gridNx = 4;
    mo.gridNy = 4;
    const StackModel model(fp, PackageConfig::makeMicrochannel(1.0),
                           mo);
    std::size_t coolant = 0, chbase = 0;
    for (std::size_t n = 0; n < model.nodeCount(); ++n) {
        const std::string &name = model.nodeName(n);
        if (name.rfind("coolant:", 0) == 0)
            ++coolant;
        if (name.rfind("chbase:", 0) == 0)
            ++chbase;
    }
    EXPECT_EQ(coolant, 16u); // one per cell
    EXPECT_EQ(chbase, 16u);
}

} // namespace
} // namespace irtherm
