#include "apps/app_registry.hh"

#include "apps/motion_runner.hh"
#include "apps/pipeline_runner.hh"
#include "apps/stereo_runner.hh"
#include "apps/wifi_runner.hh"
#include "common/log.hh"

namespace synchro::apps
{

namespace
{

/**
 * Adapt a typed spec factory to the registry's std::any calling
 * convention: an empty any becomes default-constructed params; a
 * mismatched payload type is fatal.
 */
template <typename Params>
AppDescriptor
describe(const std::string &name, AppSpec (*make)(const Params &))
{
    AppDescriptor d;
    d.name = name;
    d.spec = [name, make](const std::any &a) {
        if (!a.has_value())
            return make(Params{});
        const Params *p = std::any_cast<Params>(&a);
        if (!p) {
            fatal("AppRegistry: '%s' was handed params of the wrong "
                  "type (expected the app's own params struct)",
                  name.c_str());
        }
        return make(*p);
    };
    return d;
}

} // namespace

const AppRegistry &
AppRegistry::instance()
{
    // Lazy, centralized registration: no static-init order to get
    // wrong, nothing for a static-library link to dead-strip.
    static const AppRegistry reg = [] {
        AppRegistry r;
        for (AppDescriptor d :
             {describe("ddc", &ddcSpec), describe("wifi", &wifiSpec),
              describe("stereo", &stereoSpec),
              describe("motion", &motionSpec)})
            r.apps_.emplace(d.name, std::move(d));
        return r;
    }();
    return reg;
}

const AppDescriptor &
AppRegistry::at(const std::string &name) const
{
    auto it = apps_.find(name);
    if (it == apps_.end())
        fatal("AppRegistry: no app named '%s'", name.c_str());
    return it->second;
}

std::vector<std::string>
AppRegistry::names() const
{
    std::vector<std::string> out;
    for (const auto &kv : apps_)
        out.push_back(kv.first);
    return out;
}

} // namespace synchro::apps
