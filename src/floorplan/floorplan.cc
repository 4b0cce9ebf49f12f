#include "floorplan/floorplan.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "base/errors.hh"
#include "base/logging.hh"
#include "base/str.hh"

namespace irtherm
{

double
Block::overlapArea(double x0, double y0, double x1, double y1) const
{
    const double ox = std::max(0.0, std::min(right(), x1) - std::max(x, x0));
    const double oy = std::max(0.0, std::min(top(), y1) - std::max(y, y0));
    return ox * oy;
}

void
Floorplan::addBlock(const Block &block)
{
    if (block.name.empty())
        fatal("Floorplan: block with empty name");
    if (block.width <= 0.0 || block.height <= 0.0) {
        fatal("Floorplan: block '", block.name,
              "' has non-positive dimensions");
    }
    if (hasBlock(block.name))
        fatal("Floorplan: duplicate block name '", block.name, "'");
    blocks_.push_back(block);
}

std::size_t
Floorplan::blockIndex(const std::string &name) const
{
    for (std::size_t i = 0; i < blocks_.size(); ++i) {
        if (blocks_[i].name == name)
            return i;
    }
    fatal("Floorplan: no block named '", name, "'");
}

bool
Floorplan::hasBlock(const std::string &name) const
{
    return std::any_of(blocks_.begin(), blocks_.end(),
                       [&](const Block &b) { return b.name == name; });
}

double
Floorplan::width() const
{
    double w = 0.0;
    for (const Block &b : blocks_)
        w = std::max(w, b.right());
    return w;
}

double
Floorplan::height() const
{
    double h = 0.0;
    for (const Block &b : blocks_)
        h = std::max(h, b.top());
    return h;
}

double
Floorplan::coveredArea() const
{
    double a = 0.0;
    for (const Block &b : blocks_)
        a += b.area();
    return a;
}

void
Floorplan::validate(double tolerance) const
{
    if (blocks_.empty())
        fatal("Floorplan: empty floorplan");

    for (std::size_t i = 0; i < blocks_.size(); ++i) {
        for (std::size_t j = i + 1; j < blocks_.size(); ++j) {
            const Block &a = blocks_[i];
            const Block &b = blocks_[j];
            const double overlap =
                a.overlapArea(b.x, b.y, b.right(), b.top());
            const double limit =
                tolerance * std::min(a.area(), b.area());
            if (overlap > limit) {
                fatal("Floorplan: blocks '", a.name, "' and '", b.name,
                      "' overlap by ", overlap, " m^2");
            }
        }
    }

    const double coverage = coveredArea() / dieArea();
    if (coverage < 0.99) {
        warn("Floorplan: blocks cover only ", 100.0 * coverage,
             "% of the bounding box");
    }
}

double
Floorplan::sharedEdgeLength(std::size_t a, std::size_t b) const
{
    const Block &p = blocks_.at(a);
    const Block &q = blocks_.at(b);
    const double touch_tol =
        1e-6 * std::min({p.width, p.height, q.width, q.height});

    // Vertical adjacency: p's right edge meets q's left edge (or
    // vice versa) -> shared length is the y-interval overlap.
    const double y_overlap =
        std::max(0.0, std::min(p.top(), q.top()) - std::max(p.y, q.y));
    if (std::abs(p.right() - q.x) < touch_tol ||
        std::abs(q.right() - p.x) < touch_tol) {
        return y_overlap;
    }

    // Horizontal adjacency: shared length is the x-interval overlap.
    const double x_overlap =
        std::max(0.0,
                 std::min(p.right(), q.right()) - std::max(p.x, q.x));
    if (std::abs(p.top() - q.y) < touch_tol ||
        std::abs(q.top() - p.y) < touch_tol) {
        return x_overlap;
    }
    return 0.0;
}

Floorplan
Floorplan::parseFlp(std::istream &in)
{
    Floorplan fp;
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        const std::string stripped = trim(line);
        if (stripped.empty() || stripped[0] == '#')
            continue;
        const std::vector<std::string> tok = splitWhitespace(stripped);
        if (tok.size() < 5) {
            fatal("flp line ", lineno,
                  ": expected <name> <width> <height> <left-x> "
                  "<bottom-y>");
        }
        const std::string ctx = "flp line " + std::to_string(lineno);
        Block b;
        b.name = tok[0];
        b.width = parseDouble(tok[1], ctx);
        b.height = parseDouble(tok[2], ctx);
        b.x = parseDouble(tok[3], ctx);
        b.y = parseDouble(tok[4], ctx);
        fp.addBlock(b);
    }
    return fp;
}

Floorplan
Floorplan::loadFlp(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        ioError("Floorplan: cannot open '", path, "'");
    return parseFlp(in);
}

void
Floorplan::writeFlp(std::ostream &out) const
{
    out << "# Line Format: <unit-name> <width> <height> <left-x>"
           " <bottom-y>\n# all dimensions in meters\n";
    std::ostringstream oss;
    oss.precision(17);
    for (const Block &b : blocks_) {
        oss.str("");
        oss << b.name << "\t" << b.width << "\t" << b.height << "\t"
            << b.x << "\t" << b.y << "\n";
        out << oss.str();
    }
}

} // namespace irtherm
