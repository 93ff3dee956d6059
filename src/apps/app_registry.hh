/**
 * @file
 * The per-app capability registry.
 *
 * Every mapped application describes itself once, as an AppSpec
 * built from its own params struct (app_harness.hh). The registry
 * maps each app's name to that spec factory, and an AppDescriptor
 * exposes every capability as a view derived from the spec —
 * explorable() / verifiable() / fleet() / dvfs() — so callers can
 * iterate "for every registered app" without naming any runner.
 *
 * The views take the app's own params struct (DdcPipelineParams,
 * WifiPipelineParams, ...) wrapped in std::any, so the registry stays
 * app-agnostic; an empty any means the app's defaults, and a payload
 * of any other type is fatal.
 *
 * Registration is lazy and centralized: AppRegistry::instance()
 * registers all four apps on first use, so there is no
 * static-initialization order to worry about and no registration
 * object for the linker to dead-strip.
 */

#ifndef SYNC_APPS_APP_REGISTRY_HH
#define SYNC_APPS_APP_REGISTRY_HH

#include <any>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "apps/app_harness.hh"

namespace synchro::apps
{

/** One registered application: its name and its spec factory. */
class AppDescriptor
{
  public:
    std::string name;

    /**
     * The app's AppSpec for @p params (the app's own params struct;
     * empty = defaults). fatal() on a payload of any other type.
     */
    std::function<AppSpec(const std::any &params)> spec;

    /// @name Capability views (empty any = the app's defaults)
    /// @{
    mapping::ExplorableApp
    explorable(const std::any &params = {}) const
    {
        return explorableApp(spec(params));
    }
    mapping::LoweredArtifact
    verifiable(const std::any &params = {}) const
    {
        return lowerApp(spec(params));
    }
    sim::FleetWorkload
    fleet(const std::any &params = {}) const
    {
        return fleetWorkload(spec(params));
    }
    power::DvfsAppHooks
    dvfs(const std::any &params = {}) const
    {
        return dvfsHooks(spec(params));
    }
    /// @}
};

class AppRegistry
{
  public:
    /** The registry with all four mapped apps registered. */
    static const AppRegistry &instance();

    /** The descriptor of @p name; fatal() when unregistered. */
    const AppDescriptor &at(const std::string &name) const;

    /** Registered app names, sorted. */
    std::vector<std::string> names() const;

    const std::map<std::string, AppDescriptor> &
    apps() const
    {
        return apps_;
    }

  private:
    std::map<std::string, AppDescriptor> apps_;
};

} // namespace synchro::apps

#endif // SYNC_APPS_APP_REGISTRY_HH
