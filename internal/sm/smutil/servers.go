package smutil

import (
	"fmt"
	"sync"

	"dmx/internal/core"
	"dmx/internal/remote"
)

// serverStateKey is the environment state key of the foreign-server
// registry shared by the storage methods that reach remote servers.
const serverStateKey = "smutil.servers"

type serverRegistry struct {
	mu     sync.Mutex
	byName map[string]*remote.Server
}

func servers(env *core.Env) *serverRegistry {
	if v, ok := env.ExtState(serverStateKey); ok {
		return v.(*serverRegistry)
	}
	reg := &serverRegistry{byName: make(map[string]*remote.Server)}
	env.SetExtState(serverStateKey, reg)
	return reg
}

// AttachServer makes a foreign server reachable under name from the
// relations of env whose storage method names it: server=<name> for the
// remote method, servers=...,<name>,... for the partitioned one.
func AttachServer(env *core.Env, name string, srv *remote.Server) {
	reg := servers(env)
	reg.mu.Lock()
	defer reg.mu.Unlock()
	reg.byName[name] = srv
}

// LookupServer returns the foreign server attached to env under name.
func LookupServer(env *core.Env, name string) (*remote.Server, error) {
	reg := servers(env)
	reg.mu.Lock()
	defer reg.mu.Unlock()
	srv, ok := reg.byName[name]
	if !ok {
		return nil, fmt.Errorf("smutil: no foreign server %q attached to this environment", name)
	}
	return srv, nil
}
