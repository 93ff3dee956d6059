#include "dsp/motion.hh"

#include <cstdlib>
#include <vector>

namespace synchro::dsp
{

uint32_t
blockSad(const Image &cur, const Image &ref, unsigned x, unsigned y,
         int dx, int dy, unsigned bsize)
{
    uint32_t sad = 0;
    for (unsigned j = 0; j < bsize; ++j) {
        for (unsigned i = 0; i < bsize; ++i) {
            int a = cur.at(int(x + i), int(y + j));
            int b = ref.at(int(x + i) + dx, int(y + j) + dy);
            sad += uint32_t(std::abs(a - b));
        }
    }
    return sad;
}

namespace
{

/** Deterministic tie-break: lower SAD, then smaller |v|1, then
 * raster order of (dy, dx). */
bool
better(const MotionVector &a, const MotionVector &b)
{
    if (a.sad != b.sad)
        return a.sad < b.sad;
    int na = std::abs(a.dx) + std::abs(a.dy);
    int nb = std::abs(b.dx) + std::abs(b.dy);
    if (na != nb)
        return na < nb;
    if (a.dy != b.dy)
        return a.dy < b.dy;
    return a.dx < b.dx;
}

} // namespace

MotionVector
fullSearch(const Image &cur, const Image &ref, unsigned x, unsigned y,
           int range, unsigned bsize)
{
    MotionVector best;
    if (range < 0)
        return best;
    // Clamp every pixel the search reads once, instead of once per
    // candidate: the block of cur and the window of ref around it,
    // edge-replicated exactly as blockSad reads them.
    const unsigned span = bsize + 2 * unsigned(range);
    std::vector<uint8_t> blk(size_t(bsize) * bsize);
    std::vector<uint8_t> win(size_t(span) * span);
    for (unsigned j = 0; j < bsize; ++j)
        for (unsigned i = 0; i < bsize; ++i)
            blk[j * bsize + i] = cur.at(int(x + i), int(y + j));
    for (unsigned j = 0; j < span; ++j)
        for (unsigned i = 0; i < span; ++i)
            win[j * span + i] =
                ref.at(int(x + i) - range, int(y + j) - range);

    for (int dy = -range; dy <= range; ++dy) {
        for (int dx = -range; dx <= range; ++dx) {
            const uint8_t *w =
                win.data() + size_t(dy + range) * span + (dx + range);
            uint32_t sad = 0;
            for (unsigned j = 0; j < bsize; ++j) {
                for (unsigned i = 0; i < bsize; ++i)
                    sad += uint32_t(std::abs(int(blk[j * bsize + i]) -
                                             int(w[j * span + i])));
            }
            MotionVector mv{dx, dy, sad};
            if (better(mv, best))
                best = mv;
        }
    }
    return best;
}

MotionVector
threeStepSearch(const Image &cur, const Image &ref, unsigned x,
                unsigned y, unsigned bsize)
{
    MotionVector best{0, 0, blockSad(cur, ref, x, y, 0, 0, bsize)};
    for (int step = 4; step >= 1; step /= 2) {
        MotionVector round_best = best;
        for (int dy = -1; dy <= 1; ++dy) {
            for (int dx = -1; dx <= 1; ++dx) {
                if (dx == 0 && dy == 0)
                    continue;
                int cx = best.dx + dx * step;
                int cy = best.dy + dy * step;
                MotionVector mv{
                    cx, cy, blockSad(cur, ref, x, y, cx, cy, bsize)};
                if (better(mv, round_best))
                    round_best = mv;
            }
        }
        best = round_best;
    }
    return best;
}

} // namespace synchro::dsp
